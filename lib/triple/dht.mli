(** Substrate-independent DHT interface.

    The triple layer and the query processor talk to the overlay through
    this record, so every experiment can run over P-Grid ({!of_pgrid}) or
    over the Chord baseline with its trie range index ({!of_chord_trie})
    without code changes — that is how the E6 substrate comparison is
    made. *)

module Store = Unistore_pgrid.Store

(** The answer of one access: {!Unistore_pgrid.Store.result}, the same
    record on both substrates. *)
type result = Store.result = {
  items : Store.item list;
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
  latency : float;
}

(** A semi-join filter ({!Unistore_pgrid.Message.filter}): a Bloom
    filter of join keys and the test of an item's join slot against
    it. *)
type filter = Unistore_pgrid.Message.filter = {
  bloom : Unistore_util.Bloom.t;
  admits : Store.item -> bool;
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
  filtered_range :
    origin:int -> filter:filter option -> lo:string -> hi:string -> k:(result -> unit) -> unit;
      (** [range] whose answer holds only the items [filter] admits
          ([filter = None] is [range]). P-Grid ships the filter with
          every [Range] message and its peers drop what it rejects
          before they reply: the same messages as [range], the filter's
          bytes more per request, fewer per reply. Chord+trie's gets
          fetch whole buckets, so it filters at the receiver: the same
          items, messages and bytes as [range] reach the requester,
          which then drops what the filter rejects *)
  range_topn :
    (origin:int -> lo:string -> hi:string -> n:int -> k:(result -> unit) -> unit) option;
      (** budgeted sequential traversal in key order: stops after [n]
          items, giving the n smallest matches. [None] on Chord+trie,
          whose trie walk fetches its buckets at once, in no key order *)
  prefix : origin:int -> filter:filter option -> prefix:string -> k:(result -> unit) -> unit;
      (** every item whose key extends [prefix]; [filter] as in
          [filtered_range] *)
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
      (** clipped scan with leaf-side partial reduction: a probe shower
          over the key region \[[lo],[hi]) that runs [reduce] at every
          leaf over its matched items before replying — e.g. a local
          skyline, so dominated rows never cross the network. [reduce]
          must be a pure filter (only drop items); the origin re-runs the
          full operator over the survivors. [None] on Chord+trie, whose
          walk is plain gets answered with whole buckets *)
  bulk_insert : origin:int -> items:Store.item list -> k:(result -> unit) -> unit;
      (** batched insert. P-Grid sends one splitting [InsertBatch]
          instead of one routed exchange per item; Chord+trie puts the
          batch's distinct trie markers once, then each item's bucket
          entry. [result.items] is empty *)
  multi_lookup :
    origin:int -> keys:string list -> k:((string * Store.item list) list * result -> unit) -> unit;
      (** batched exact-key lookups (the bind-join probe pattern): P-Grid
          groups them by responsible region, Chord+trie fetches each
          distinct trie bucket once. The continuation receives per-key
          answers (deduplicated, sorted keys; a missing key maps to
          [[]]) plus the combined result, whose [items] is empty *)
  send_task : src:int -> dst:int -> bytes:int -> k:(bool -> unit) -> unit;
      (** application-level plan shipping: [k true] runs at [dst] on
          arrival; [k false] runs after the substrate's request timeout
          when the task was lost (dead or partitioned [dst]); arrival
          cancels that deadline. [k] fires exactly once *)
  total_sent : unit -> int;
  expected_latency : float;  (** mean one-way delay, for the cost model *)
  depth : unit -> int;  (** trie depth / log ring size: the hop bound *)
  responsible_peer : string -> int option;
      (** an alive peer responsible for a key (used to pick the next
          carrier when shipping mutant query plans) *)
  stat_gossip : stat_gossip option;
      (** gossiped optimizer statistics. [None] on Chord+trie, whose
          peers keep no statistics cache and run no gossip *)
}

and stat_gossip = {
  round : unit -> unit;
      (** starts one round of statistics sampling + epidemic spread (see
          {!Unistore_pgrid.Gossip.stats_round}); its messages are only
          queued, the caller drives them *)
  cache_of : int -> Unistore_cache.Statcache.t;
      (** a peer's gossiped-statistics cache — what the optimizer plans
          from in the distributed path *)
}

(** {2 Adapters} *)

val of_pgrid : Unistore_pgrid.Overlay.t -> t

(** Chord with the distributed trie index threading every insert and
    serving every range scan. *)
val of_chord_trie : Unistore_chord.Chord.t -> t
