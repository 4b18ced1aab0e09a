(** P-Grid wire messages.

    Routing is by full encoded keys (byte strings): every node knows its
    own split boundaries, so a key is enough to route greedily. Closures
    appear in two places ([Probe] predicates and [Task] payloads): the
    simulator ships OCaml values instead of serialized bytes, and [size]
    charges what the wire encoding would cost so that bandwidth
    accounting stays meaningful. Item lists are charged exactly, by
    {!Wire.items_bytes}; lists of bare keys are charged their bytes with
    no per-key length. *)

type range_strategy =
  | Shower  (** parallel: split the range across complementary subtrees *)
  | Sequential  (** serial min-bound traversal: answer, then forward the rest *)

val pp_strategy : Format.formatter -> range_strategy -> unit

(** A semi-join filter: a Bloom filter of the join keys the requester
    holds, and the test of one item's join slot against it. The wire
    carries [bloom] ({!Unistore_util.Bloom.bytes}; the slot [admits]
    reads is a tag among the range's fixed fields). [admits] must admit
    every item whose slot value [bloom] holds. *)
type filter = { bloom : Unistore_util.Bloom.t; admits : Store.item -> bool }

(** A range request. A peer forwarding it sends [Range { r with ... }],
    changing only the token, clip, hops and budget. Every hit goes
    straight to [origin]. *)
type range = {
  rid : int;
  token : int;  (** unique per message; echoed by the receiver's hit *)
  lo : string;  (** exact inclusive bounds for local filtering *)
  hi : string;
  clip_lo : string;  (** routing clip, inclusive *)
  clip_hi : string option;  (** routing clip, exclusive; [None] = +inf *)
  origin : int;
  hops : int;
  strategy : range_strategy;
  budget : int option;
      (** remaining result budget for sequential top-N traversals:
          stop forwarding once this many items were produced *)
  filter : filter option;
      (** semi-join filter: a peer answers with only the local items it
          admits. Never set together with [budget] *)
}

type t =
  | Insert of { rid : int; item : Store.item; origin : int; hops : int }
  | Update of { rid : int; item : Store.item; origin : int; hops : int; rounds : int }
      (** versioned write propagated to replicas by rumor spreading with
          [rounds] residual hops (Datta et al., ICDCS'03 style) *)
  | Replicate of { items : Store.item list; rounds_left : int }
      (** items pushed to a replica: a write's replication, the answer
          to anti-entropy and a repair's state transfer. A receiver
          relays what changed its store while [rounds_left > 0] (rumor
          spreading) *)
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
      (** the answer to a [Lookup], and with no items to an [Insert] or
          [Update] once the owner applied it. [region] is the responding
          peer's key region, so the origin can learn a routing shortcut
          to it (see {!Unistore_cache.Shortcuts}) *)
  | Range of range
  | RangeHit of {
      rid : int;
      token : int;
      items : Store.item list;
      targets : int list;
      hops : int;
    }
      (** sent to the request's origin. [token] identifies which
          message this hit answers; [targets] lists the tokens of the
          messages the sender forwarded, plus one {!hop_limited} entry
          per sub-range it had to drop at the hop limit *)
  | InsertBatch of { rid : int; items : Store.item list; origin : int; hops : int }
      (** bulk insert: sorted items that split shower-style as the batch
          descends the trie; each covering peer stores its share and
          acks it as one [MultiFound] mapping each stored key to no
          items; unacked keys are selectively retransmitted *)
  | MultiLookup of { rid : int; keys : string list; origin : int; hops : int }
      (** batched bind-join probe: deduplicated lookup keys that split
          like an [InsertBatch]; answered per region *)
  | MultiFound of {
      rid : int;
      found : (string * Store.item list) list;
      region : string * string option;
      hops : int;
    }  (** one region's answers to a [MultiLookup] or [InsertBatch] *)
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
  | StatDigest of { entries : Unistore_cache.Statcache.digest_entry list }
      (** the periodic statistics push (see {!Gossip.stats_round}): one
          stamp per region the sender holds, no content; a receiver
          answers with a [StatPull] for the regions it lacks *)
  | StatPull of { regions : string list }
      (** asks a digest's sender for its summaries of these regions *)
  | StatGossip of { summaries : Unistore_cache.Statcache.summary list; rounds_left : int }
      (** sampled per-attribute statistics: the answer to a [StatPull],
          or a relay of news; a receiver relays what was news to it
          while [rounds_left > 0] *)
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

(** The [RangeHit] target standing for a sub-range that was never
    forwarded because the message already travelled [max_hops]: the
    origin counts it as an addressed region that will not answer. *)
val hop_limited : int

(** Fixed per-message envelope cost assumed by [size] (addressing,
    correlation ids, framing). Batching wins come largely from paying
    this once per batch instead of once per item. *)
val header : int

(** Wire size in bytes: {!header} plus the fields, every item list
    sized by {!Wire.items_bytes} (a [MultiFound] key's list coded
    against that key), a [Range]'s filter by its Bloom filter's
    bytes. *)
val size : t -> int

(** Constructor name for tracing, e.g. ["lookup"], ["range"]. *)
val kind : t -> string

(** Correlation id for request/reply trace linting: the [rid] carried by
    routed requests and their replies, [-1] for fire-and-forget traffic
    (replication, anti-entropy, shipped closures). *)
val corr : t -> int
