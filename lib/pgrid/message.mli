(** P-Grid wire messages.

    Routing is by full encoded keys (byte strings): every node knows its
    own split boundaries, so a key is enough to route greedily. Closures
    appear in two places ([Probe] predicates and [Task] payloads): the
    simulator ships OCaml values instead of serialized bytes, with [size]
    estimating what the wire encoding would cost so that bandwidth
    accounting stays meaningful. *)

type range_strategy =
  | Shower  (** parallel: split the range across complementary subtrees *)
  | Sequential  (** serial min-bound traversal: answer, then forward the rest *)

val pp_strategy : Format.formatter -> range_strategy -> unit

type t =
  | Insert of { rid : int; item : Store.item; origin : int; hops : int }
  | Update of { rid : int; item : Store.item; origin : int; hops : int; rounds : int }
      (** versioned write propagated to replicas by rumor spreading with
          [rounds] residual hops (Datta et al., ICDCS'03 style) *)
  | Delete of { rid : int; key : string; item_id : string; origin : int; hops : int }
      (** remove one item (routed like an insert; replicas notified) *)
  | Replicate of { item : Store.item; rounds_left : int }
      (** rumor-spreading replica update *)
  | Unreplicate of { key : string; item_id : string }
      (** replica-side removal matching a [Delete] *)
  | Ack of { rid : int; hops : int; region : string * string option }
      (** [region] is the responding peer's key region, so the origin can
          learn a routing shortcut to it (see
          {!Unistore_cache.Shortcuts}) *)
  | Lookup of { rid : int; key : string; origin : int; hops : int }
  | Found of {
      rid : int;
      items : Store.item list;
      hops : int;
      region : string * string option;
      spread : int list;
          (** other peers currently serving [region] (replicas and
              hot-path boosts); origins in spread mode learn them all as
              shortcut targets. Empty unless hot-path replication is on. *)
    }
      (** carries the responder's region like [Ack] *)
  | Range of {
      rid : int;
      token : int;  (** unique per message; echoed by the receiver's hit *)
      lo : string;  (** exact inclusive bounds for local filtering *)
      hi : string;
      clip_lo : string;  (** routing clip, inclusive *)
      clip_hi : string option;  (** routing clip, exclusive; [None] = +inf *)
      origin : int;
      reply_to : int;
          (** where the receiver's hit goes: the origin, or — under
              in-network range aggregation — the parent in the split
              tree, which merges child hits before replying upward *)
      hops : int;
      strategy : range_strategy;
      budget : int option;
          (** remaining result budget for sequential top-N traversals:
              stop forwarding once this many items were produced *)
    }
  | RangeHit of {
      rid : int;
      token : int;
      items : Store.item list;
      targets : int list;
      origin : int;
      hops : int;
    }
      (** [token] identifies which message this hit answers; [targets]
          lists the tokens of messages the sender forwarded whose hits
          it did {e not} merge itself, plus one {!hop_limited} entry per
          sub-range it had to drop at the hop limit; [origin] lets a peer
          holding no aggregation buffer for [token] relay the hit home *)
  | InsertBatch of { rid : int; items : Store.item list; origin : int; hops : int }
      (** bulk insert: sorted items that split shower-style as the batch
          descends the trie; each covering peer stores its share and
          acks it as one [AckBatch] *)
  | AckBatch of { rid : int; keys : string list; region : string * string option; hops : int }
      (** per-region ack of a bulk insert: [keys] were stored by the
          sender; unacked keys are selectively retransmitted *)
  | MultiLookup of { rid : int; keys : string list; origin : int; hops : int }
      (** batched bind-join probe: deduplicated lookup keys that split
          like an [InsertBatch]; answered per region *)
  | MultiFound of {
      rid : int;
      found : (string * Store.item list) list;
      region : string * string option;
      hops : int;
    }  (** one region's answers to a [MultiLookup] *)
  | Probe of {
      rid : int;
      token : int;
      clip_lo : string;
      clip_hi : string option;
      origin : int;
      hops : int;
      pred : Store.item -> bool;
      reduce : (Store.item list -> Store.item list) option;
          (** leaf-side partial reduction over the locally matched items
              (e.g. a local skyline); must only drop items, never invent
              them — the origin re-runs the full operator over the
              survivors *)
    }  (** broadcast a local scan predicate to every peer intersecting the clip *)
  | Task of { bytes : int; run : int -> unit }
      (** application-shipped computation (mutant query plans); [run]
          receives the executing peer id *)
  | SyncDigest of { digest : (string * string * int) list }
  | SyncRequest of { wanted : (string * string) list }
  | SyncItems of { items : Store.item list }
  | StatGossip of { summaries : Unistore_cache.Statcache.summary list }
      (** epidemic spread of sampled per-attribute statistics (see
          {!Gossip.stats_round}) *)
  | HotSync of {
      region : string * string option;
      owner : int;
      spread : int list;  (** full serving set for [region], owner included *)
      items : Store.item list;  (** current content of the owner's region *)
      retire : bool;  (** [true] = stop boosting [region] instead *)
    }
      (** hot-path replication control: the owner of an overloaded
          region ships its content to a boost replica (or retires one);
          see {!Balance.round} *)
  | Exchange of { bytes : int; run : int -> unit }
      (** bootstrap pairwise exchange step (see {!Build.bootstrap}) *)

(** The [RangeHit] target standing for a sub-range that was never
    forwarded because the message already travelled [max_hops]: the
    origin counts it as an addressed region that will not answer. *)
val hop_limited : int

(** Fixed per-message envelope cost assumed by [size] (addressing,
    correlation ids, framing). Batching wins come largely from paying
    this once per batch instead of once per item. *)
val header : int

(** Estimated wire size in bytes. *)
val size : t -> int

(** Constructor name for tracing, e.g. ["lookup"], ["range"]. *)
val kind : t -> string

(** Correlation id for request/reply trace linting: the [rid] carried by
    routed requests and their replies, [-1] for fire-and-forget traffic
    (replication, anti-entropy, shipped closures). *)
val corr : t -> int
