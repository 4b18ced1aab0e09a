(** Substrate-independent DHT interface.

    The triple layer and the query processor talk to the overlay through
    this record, so every experiment can run over P-Grid ({!of_pgrid}) or
    over the Chord baseline with its trie range index ({!of_chord_trie})
    without code changes — that is how the E6 substrate comparison is
    made. *)

module Store = Unistore_pgrid.Store

type result = {
  items : Store.item list;
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
      (** coverage estimate in [0,1] — regions reached / regions
          addressed; [1.0] iff [complete]. P-Grid reports exact token /
          key coverage (see {!Unistore_pgrid.Overlay.result}); the Chord
          baseline reports all-or-nothing. *)
  latency : float;
}

type t = {
  name : string;
  peers : int;
  sim : Unistore_sim.Sim.t;
  insert :
    origin:int -> key:string -> item_id:string -> payload:string -> k:(bool -> unit) -> unit;
  delete : origin:int -> key:string -> item_id:string -> k:(bool -> unit) -> unit;
  lookup : origin:int -> key:string -> k:(result -> unit) -> unit;
  range : origin:int -> lo:string -> hi:string -> k:(result -> unit) -> unit;
  range_topn :
    (origin:int -> lo:string -> hi:string -> n:int -> k:(result -> unit) -> unit) option;
      (** budgeted sequential traversal in key order (P-Grid only): stops
          after [n] items, giving the n smallest matches *)
  prefix : origin:int -> prefix:string -> k:(result -> unit) -> unit;
  broadcast : origin:int -> pred:(Store.item -> bool) -> k:(result -> unit) -> unit;
  scan_reduce :
    (origin:int ->
    lo:string ->
    hi:string ->
    pred:(Store.item -> bool) ->
    reduce:(Store.item list -> Store.item list) ->
    k:(result -> unit) ->
    unit)
    option;
      (** clipped scan with leaf-side partial reduction (P-Grid only): a
          probe shower over the key region \[[lo],[hi]) that runs
          [reduce] at every leaf over its matched items before replying —
          e.g. a local skyline, so dominated rows never cross the
          network. [reduce] must be a pure filter (only drop items);
          the origin re-runs the full operator over the survivors.
          [None] when the substrate cannot ship closures. *)
  bulk_insert : (origin:int -> items:Store.item list -> k:(result -> unit) -> unit) option;
      (** batched insert: one splitting [InsertBatch] instead of one
          routed exchange per item (P-Grid only); [None] when the
          substrate has no batch path *)
  multi_lookup :
    (origin:int ->
    keys:string list ->
    k:((string * Store.item list) list * result -> unit) ->
    unit)
    option;
      (** batched exact-key lookups grouped by responsible region (the
          bind-join probe pattern, P-Grid only); the continuation
          receives per-key answers plus the combined result *)
  send_task : (src:int -> dst:int -> bytes:int -> (int -> unit) -> unit) option;
      (** application-level plan shipping; [None] when the substrate does
          not support it (plain Chord) *)
  total_sent : unit -> int;
  expected_latency : float;  (** mean one-way delay, for the cost model *)
  depth : unit -> int;  (** trie depth / log ring size: the hop bound *)
  alive_peers : unit -> int list;
  responsible_peer : string -> int option;
      (** an alive peer responsible for a key (used to pick the next
          carrier when shipping mutant query plans) *)
  stat_gossip_round : (unit -> unit) option;
      (** one round of statistics sampling + epidemic spread (see
          {!Unistore_pgrid.Gossip.stats_round}), driven to completion;
          [None] when the substrate has no statistics gossip *)
  statcache_of : (int -> Unistore_cache.Statcache.t) option;
      (** a peer's gossiped-statistics cache — what the optimizer plans
          from in the distributed path; [None] on substrates without it *)
}

(** {2 Synchronous wrappers} *)

val insert_sync :
  t -> origin:int -> key:string -> item_id:string -> payload:string -> bool

val delete_sync : t -> origin:int -> key:string -> item_id:string -> bool
val lookup_sync : t -> origin:int -> key:string -> result
val range_sync : t -> origin:int -> lo:string -> hi:string -> result
val prefix_sync : t -> origin:int -> prefix:string -> result
val broadcast_sync : t -> origin:int -> pred:(Store.item -> bool) -> result

(** {2 Adapters} *)

val of_pgrid : Unistore_pgrid.Overlay.t -> t

(** Chord with the distributed trie index threading every insert and
    serving every range scan. *)
val of_chord_trie : Unistore_chord.Chord.t -> t
