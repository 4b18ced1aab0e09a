(** A P-Grid peer.

    Each peer sits at a leaf of the virtual binary trie: its [path] is the
    sequence of branch choices from the root. Unlike a plain hash-prefix
    trie, P-Grid's load balancing chooses every split point from the
    {e data distribution} (Aberer et al., VLDB'05): level [l] of the trie
    divides its region at boundary [splits.(l)] (an encoded key); bit 0
    means "keys below the boundary", bit 1 "keys at or above it". A peer
    therefore knows, for every level of its own path, the boundary that
    was used — that is all the state greedy prefix routing needs.

    For every level [l] it also keeps references to peers of the
    complementary subtree, which makes any key reachable in at most
    [length path] hops. *)

type t = {
  id : int;
  mutable path : Unistore_util.Bitkey.t;
  mutable splits : string array;  (** boundary key per level; length = path length *)
  mutable refs : int list array;  (** level -> complementary-subtree peers *)
  mutable replicas : int list;  (** other peers with an identical path *)
  store : Store.t;
  mutable write_epoch : int;
      (** counts local store changes — the freshness version attached to
          sampled statistics (see {!Unistore_cache.Statcache}) *)
  shortcuts : Unistore_cache.Shortcuts.t;
      (** learned region → peer routing shortcuts (capacity set by
          {!Config.t.shortcut_capacity} at registration) *)
  stat_cache : Unistore_cache.Statcache.t;
      (** gossiped per-attribute statistics summaries *)
  rtt : Rtt.t;
      (** per-peer/per-class EWMA latency estimates feeding adaptive
          retry deadlines (see {!Config.t.adaptive_timeout}) *)
  hot_store : Store.t;
      (** boost-replica copy of another peer's hot region — kept apart
          from [store] so region-placement invariants still hold *)
  mutable hot_region : (string * string option) option;
      (** the boosted region when this peer serves as a boost replica *)
  mutable hot_owner : int;  (** owner of the boosted region, [-1] if none *)
  mutable hot_spread : int list;
      (** full serving set (owner side) advertised in boost replies *)
  mutable boosts : int list;
      (** as an owner: peers currently boosting this node's region *)
  mutable served : int;  (** request messages handled (monotone) *)
  mutable served_mark : int;  (** [served] at the last statistics sample *)
  mutable stat_memo : int * Unistore_cache.Statcache.summary list;
      (** the statistics sampler's memo: the {!Store.generation} of
          [store] it last scanned and the summaries it built then;
          {!no_stat_memo} until the first sample. Owned by
          {!Unistore_triple.Stat_sample}. *)
  mutable region_cache : (string * string option) option;
      (** memoized {!region} — [covers] runs on every routing decision;
          invalidated by {!set_path}/{!extend}. Code that mutates
          [path]/[splits] directly (tests) must reset it to [None]. *)
}

(** The empty memo: matches no store generation, so the next sample
    scans. *)
val no_stat_memo : int * Unistore_cache.Statcache.summary list

(** [create ?backend id] — [backend] (default [Hash]) selects the main
    store's implementation; the log backend names its file after [id].
    [hot_store] always stays in-memory (it is a soft replica copy). *)
val create : ?backend:Store_intf.backend -> int -> t

(** [bump_epoch t] records one local store change. *)
val bump_epoch : t -> unit

(** [bump_served t] counts one handled request message — the raw signal
    behind the gossiped per-region load statistic. *)
val bump_served : t -> unit

(** Requests handled since the previous call (advances the mark);
    consumed by {!Unistore_triple.Stat_sample} once per gossip round. *)
val served_delta : t -> int

(** [hot_covers t key]: this peer boosts a hot region containing [key]. *)
val hot_covers : t -> string -> bool

(** Drop the boost assignment and the synced hot copy. *)
val clear_hot : t -> unit

(** [set_path t path splits] updates position and boundaries together
    ([splits] must have one entry per path level). Existing refs at
    surviving levels are preserved. *)
val set_path : t -> Unistore_util.Bitkey.t -> string array -> unit

(** [extend t ~bit ~boundary] descends one level. *)
val extend : t -> bit:bool -> boundary:string -> unit

(** [refs_at t l] is the (possibly empty) reference list at level [l]. *)
val refs_at : t -> int -> int list

(** [add_ref t ~level peer ~cap] adds [peer] at [level] unless present,
    evicting the oldest entry beyond [cap]. *)
val add_ref : t -> level:int -> int -> cap:int -> unit

val remove_ref : t -> int -> unit

(** [add_replica t peer] records a same-path replica (idempotent). *)
val add_replica : t -> int -> unit

val remove_replica : t -> int -> unit

(** Key region covered by this peer: [(lo, hi)] with [lo] inclusive and
    [hi] exclusive; [hi = None] means unbounded above. *)
val region : t -> string * string option

(** [covers t key] holds iff [key] lies in {!region}. *)
val covers : t -> string -> bool

(** [key_side t ~level key] is the branch ([false] = below the boundary)
    the key takes at one of this peer's levels. *)
val key_side : t -> level:int -> string -> bool

(** Total routing-table entries (for table-size experiments). *)
val table_size : t -> int

val pp : Format.formatter -> t -> unit
