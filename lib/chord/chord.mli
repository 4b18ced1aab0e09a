(** Chord DHT baseline.

    A classic Chord ring with finger tables, successor lists and
    successor-replication, implemented over the same simulated network as
    P-Grid so that message/hop/latency costs are directly comparable.

    Construction is oracle-based (the converged ring: exact successors,
    predecessors and fingers); dynamic join/stabilize is out of scope for
    the baseline — the experiments compare steady-state query processing.

    Exact-match [put]/[get] are O(log n) hops, like P-Grid lookups. Range
    queries, however, have no native support because the placement hash is
    not order-preserving: use {!Trie_index} (extra distributed structure,
    the approach the paper attributes to Chord) or {!broadcast}. *)

module Store = Unistore_pgrid.Store

type t

(** The answer of one operation ({!Store.result}); [completeness] is
    [1.0] iff [complete]. *)
type result = Store.result = {
  items : Store.item list;
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
  latency : float;
}

(** Chord's one setting: [succ_list], the successor-list length, which
    is also the replication factor (default 3). *)
type config = { succ_list : int }

val default_config : config

(** Deadline of every request (10 s). A single-peer request re-sends
    twice on expiry before it gives up; a multi-peer one finishes
    partial. *)
val timeout_ms : float

(** [create sim ~latency ~rng ?drop ~config ~n ()] builds an [n]-peer ring
    with exact routing state. *)
val create :
  Unistore_sim.Sim.t ->
  latency:Unistore_sim.Latency.t ->
  rng:Unistore_util.Rng.t ->
  ?drop:float ->
  config:config ->
  n:int ->
  unit ->
  t

val sim : t -> Unistore_sim.Sim.t
val node_count : t -> int

(** Ring id of a peer (for tests). *)
val ring_id : t -> int -> int

val kill : t -> int -> unit
val revive : t -> int -> unit

(** The simulator's view of the ring, which no peer has. *)
module Oracle : sig
  val is_alive : t -> int -> bool
  val alive_peers : t -> int list
  val responsible : t -> string -> int  (** whose arc holds the key's hash, dead or alive *)
end

(** Mean one-way latency of the underlying network model. *)
val expected_latency : t -> float

(** Attach/detach a metrics registry for per-kind message accounting
    (see {!Unistore_sim.Net.set_metrics}). *)
val set_metrics : t -> Unistore_obs.Metrics.t option -> unit

(** Attach/detach a message trace (see {!Unistore_sim.Net.set_trace}). *)
val set_trace : t -> Unistore_sim.Trace.t option -> unit

val total_sent : t -> int

(** {2 Routing-state accessors} — read-only views for the overlay
    invariant auditor ([Unistore_analysis.Audit]). *)

(** All peer ids, sorted. *)
val peers : t -> int list

(** Successor list of a peer, nearest first. *)
val successors : t -> int -> int list

(** Predecessor of a peer. *)
val predecessor_of : t -> int -> int

(** Finger table of a peer (entry [i] routes toward
    [Ring.finger_start ring i]); a fresh copy. *)
val fingers : t -> int -> int array

(** Every item a peer stores, sorted (for tests). *)
val stored_items : t -> int -> Store.item list

(** {2 Operations} — key placement uses [Ring.hash_key key]. *)

(** Store one item at the responsible peer and its successor replicas.
    The result holds no items, wherever the origin sits. *)
val put :
  t -> origin:int -> key:string -> item_id:string -> payload:string -> ?version:int ->
  k:(result -> unit) -> unit -> unit

val get : t -> origin:int -> key:string -> k:(result -> unit) -> unit

(** Remove one item (by key and item id) from the responsible peer and
    its successor replicas. The result holds no items. *)
val del : t -> origin:int -> key:string -> item_id:string -> k:(result -> unit) -> unit

(** Finger-tree broadcast: every alive peer scans its store with [pred];
    O(n) messages, O(log n) latency depth. *)
val broadcast : t -> origin:int -> pred:(Store.item -> bool) -> k:(result -> unit) -> unit

(** [send_task t ~src ~dst ~bytes f] ships a computation (a mutant query
    plan) to [dst] as one message; [f] runs there unless [dst] is dead. *)
val send_task : t -> src:int -> dst:int -> bytes:int -> (int -> unit) -> unit
