(** The P-Grid overlay: routing and data-access protocols.

    All operations are asynchronous (continuation-passing) because they are
    implemented as real message exchanges inside the discrete-event
    simulator. Each calls its continuation exactly once, at the tail of
    the handler that finishes it. To wait for one, pass it to
    {!Unistore_sim.Sim.await}; only the facade and tests do.

    Guarantees (demonstrated by the E2 benchmark):
    - [lookup]/[insert] resolve in at most [depth] overlay hops, i.e.
      O(log n) for a balanced trie — and in a single hop when the
      origin's routing-shortcut cache ({!Unistore_cache.Shortcuts}, fed
      by the regions carried on [Found]/[Ack] replies) already knows the
      responsible peer;
    - [range ~strategy:Shower] reaches every peer intersecting the range
      with one message each, after O(depth) splitting hops;
    - [range ~strategy:Sequential] visits intersecting leaves one after the
      other, each reached by greedy routing. *)

type t

(** The answer of a data-access operation ({!Store.result}). *)
type result = Store.result = {
  items : Store.item list;
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
  latency : float;
}

val create :
  Sim.t ->
  latency:Latency.t ->
  rng:Unistore_util.Rng.t ->
  ?drop:float ->
  config:Config.t ->
  unit ->
  t

val sim : t -> Sim.t
val net : t -> Message.t Net.t
val config : t -> Config.t

(** [set_config t c] swaps the live parameter set — used to toggle the
    adaptive-balancing arm ([adaptive_timeout] / [hot_replication]) on
    an already-built deployment. Per-node shortcut spread mode follows
    [hot_replication] and is re-propagated to every node. *)
val set_config : t -> Config.t -> unit

val rng : t -> Unistore_util.Rng.t

(** [set_metrics t (Some m)] starts recording operation-level series
    into [m] — per-operation hop-count, retry and latency histograms
    ([overlay.lookup.hops], [overlay.insert.retries], ...), range/probe
    fan-out ([overlay.range.fanout] = peers that executed local work),
    ok/incomplete outcome counters and a resend counter — and attaches
    [m] to the underlying network for per-kind message accounting (see
    {!Unistore_sim.Net.set_metrics}). [None] detaches; the disabled
    path costs nothing. *)
val set_metrics : t -> Unistore_obs.Metrics.t option -> unit

val metrics : t -> Unistore_obs.Metrics.t option

(** [set_read_observer t (Some f)] calls [f ~origin items] whenever a
    lookup completes successfully at its origin — the observation feed
    for the trace linter's monotone-reads (cache staleness) check.
    [None] detaches; the disabled path costs nothing. *)
val set_read_observer : t -> (origin:int -> Store.item list -> unit) option -> unit

(** [add_node t id] creates, registers and returns a node with an empty
    path (responsible for the whole key space until paths are assigned). *)
val add_node : t -> int -> Node.t

val node : t -> int -> Node.t
val nodes : t -> Node.t list
val node_count : t -> int

(** Maximum path length over all nodes (trie depth). *)
val depth : t -> int

(** Peers whose region covers the encoded key (oracle view, used by tests
    and for choosing mutant-plan carriers). *)
val responsible : t -> string -> Node.t list

(** {2 Failure injection} *)

val kill : t -> int -> unit
val revive : t -> int -> unit
val alive : t -> int -> bool

(** [crash t ?keep_frac id] kills [id] {e and} loses its volatile
    state, unlike {!kill} (which keeps state intact for {!revive}):
    a store without a journal restarts empty; one with a journal
    replays it, truncated to [keep_frac] of its bytes first when given (the torn
    tail — the cut may fall mid-record). Also drops any boost-replica
    copy. Counts [fault.crash]; returns the locally recovered item
    count. The peer stays dead until {!revive}; repair/anti-entropy
    then reconcile the lost delta from the replica group. *)
val crash : t -> ?keep_frac:float -> int -> int

(** Publish storage gauges summed over alive peers — [store.bytes]
    (deterministic memory-model estimate), [store.items] and
    [store.log_bytes] — into the attached metrics registry (no-op
    without one). The same counters the storage tests assert on, so
    reported numbers and test expectations share one source. *)
val refresh_store_gauges : t -> unit

(** Peers currently holding an unflushed in-network aggregation buffer
    (interior nodes of in-flight shower ranges). Exposed so fault tests
    can kill an aggregator mid-query deterministically. *)
val agg_owners : t -> int list

(** {2 Asynchronous operations} *)

(** [insert t ~origin ~key ~item_id ~payload ()] routes the item to the
    responsible peer, stores it there and pushes it to that peer's replica
    group. The continuation receives [complete = false] if every retry
    timed out. *)
val insert :
  t ->
  origin:int ->
  key:string ->
  item_id:string ->
  payload:string ->
  ?version:int ->
  k:(result -> unit) ->
  unit ->
  unit

(** [lookup t ~origin ~key] retrieves all items whose full encoded key
    equals [key]. *)
val lookup : t -> origin:int -> key:string -> k:(result -> unit) -> unit

(** [delete t ~origin ~key ~item_id] removes one item from the
    responsible peer and its replicas. *)
val delete : t -> origin:int -> key:string -> item_id:string -> k:(result -> unit) -> unit

(** [update t ~origin ~key ~item_id ~payload ~version ()] is a versioned
    write with loose consistency: the responsible peer applies it (LWW) and
    rumor-spreads it to [gossip_fanout] replicas for [rounds] residual
    hops. Replicas missed by the rumor converge later through
    {!Gossip.anti_entropy_round}. *)
val update :
  t ->
  origin:int ->
  key:string ->
  item_id:string ->
  payload:string ->
  version:int ->
  ?rounds:int ->
  k:(result -> unit) ->
  unit ->
  unit

(** [range t ~origin ~lo ~hi] retrieves all items with
    [lo <= key <= hi]. With [budget = Some n] (Sequential only) the
    traversal stops after producing [n] items — since key order equals
    value order this yields the [n] smallest matches (a distributed
    top-N with early termination). *)
val range :
  t ->
  origin:int ->
  ?strategy:Message.range_strategy ->
  ?budget:int ->
  lo:string ->
  hi:string ->
  k:(result -> unit) ->
  unit ->
  unit

(** [prefix t ~origin ~prefix] retrieves all items whose key extends
    [prefix] (substring/prefix search on the indexed encodings). *)
val prefix : t -> origin:int -> prefix:string -> k:(result -> unit) -> unit

(** [broadcast t ~origin ?lo ?hi ?reduce ~pred ~k ()] floods the overlay
    region \[[lo],[hi]) (default: every alive peer) and scans each local
    store's items in that region with [pred]; the expensive fallback
    when no index applies.
    [reduce], when given, runs at every leaf over its matched items
    before the reply is sent — a leaf-side partial reduction (e.g. a
    local skyline) whose dropped items never cross the network. It must
    be a pure filter: only drop items, never invent or mutate them. *)
val broadcast :
  t ->
  origin:int ->
  ?lo:string ->
  ?hi:string ->
  ?reduce:(Store.item list -> Store.item list) ->
  pred:(Store.item -> bool) ->
  k:(result -> unit) ->
  unit ->
  unit

(** {2 Batched operations}

    Always available on P-Grid; {!Unistore_triple.Dht} exposes them as
    optional capabilities, which substrates without a batch path (Chord)
    leave out. *)

(** [bulk_insert t ~origin ~items ~k] stores the whole batch with one
    [InsertBatch] message that splits shower-style down the trie
    (O(touched regions · depth) messages instead of one routed exchange
    per item). Each covering region acks its share once; timeouts
    selectively retransmit only still-unacked items. [result.items] is
    empty; [result.peers_hit] counts acking regions. *)
val bulk_insert : t -> origin:int -> items:Store.item list -> k:(result -> unit) -> unit

(** [multi_lookup t ~origin ~keys ~k] resolves many exact-key lookups
    with one [MultiLookup] message per touched subtree (the bind-join
    probe pattern). [k] receives the per-key answers (deduplicated,
    sorted keys; missing keys map to [[]]) alongside the combined
    result, whose [items] is empty. *)
val multi_lookup :
  t ->
  origin:int ->
  keys:string list ->
  k:((string * Store.item list) list * result -> unit) ->
  unit

(** [split_batch me ~key_of xs] partitions a batch at peer [me]: the
    elements [me] covers, and one group per level of [me]'s path at
    which some keys branch away, in ascending level order — the level
    each key would be forwarded at by greedy prefix routing. Elements
    keep their input order in every part. [xs] must be sorted by
    [key_of] in byte-string order; the scan of each key starts at the
    first level where the batch's first and last keys part. *)
val split_batch : Node.t -> key_of:('a -> string) -> 'a list -> 'a list * (int * 'a list) list

(** [send_task t ~src ~dst ~bytes f] ships an application-level computation
    (e.g. a mutant query plan) to [dst]; [f] runs there on arrival. Counted
    as one message of [bytes] payload. [f] is not run if [dst] is dead. *)
val send_task : t -> src:int -> dst:int -> bytes:int -> (int -> unit) -> unit
