(** Simulated message-passing network.

    Peers are integers; each registers a handler. [send] draws a one-way
    latency, applies message loss, and schedules the delivery event.
    Messages to dead peers vanish (the sender learns nothing — protocols
    must use timeouts). Experiments measure message/bandwidth cost per
    message kind through an attached {!Unistore_obs.Metrics} registry
    ({!set_metrics}), or per message through an attached {!Trace}
    ({!set_trace}); {!total_sent} is the one always-on count.

    {b Representation.} Peer state lives in an arena of dense arrays
    indexed by peer id (ids are expected to be minted densely from 0).
    Liveness is a swap-remove set ([alive_ids] plus an inverse position
    index), so {!kill}, {!revive} and the {!Oracle} reads are O(1)
    ({!Oracle.alive_peers} is cached); nothing on the per-message path scans
    the peer population. Fault state (slow factors, partition groups)
    is held in the same arena and guarded by population counters, so a
    fault-free network pays no per-send cost for the fault machinery.

    {b Determinism.} The network owns a private RNG stream (split from
    the creation [rng]) used only for drop decisions, so loss does not
    perturb protocol-level RNG streams. Given the same seed and the
    same sequence of calls, every delivery schedule — and hence the
    whole event trace — is reproducible bit-for-bit. *)

type 'msg t

(** [create sim ~latency ~rng ?drop ?size ?kind ?corr ()] builds a
    network. [drop] is the iid message-loss probability (default [0.]).
    [size] estimates payload bytes for bandwidth accounting (default
    [fun _ -> 64]). [kind] names a message's constructor for tracing
    (default [fun _ -> "msg"]). [corr] extracts a correlation (request)
    id for request/reply trace linting (default [fun _ -> -1]). *)
val create :
  Sim.t ->
  latency:Latency.t ->
  rng:Unistore_util.Rng.t ->
  ?drop:float ->
  ?size:('msg -> int) ->
  ?kind:('msg -> string) ->
  ?corr:('msg -> int) ->
  unit ->
  'msg t

(** [set_trace t (Some tr)] starts recording every message into [tr];
    [None] stops. Tracing off costs nothing. *)
val set_trace : 'msg t -> Trace.t option -> unit

val trace : 'msg t -> Trace.t option

(** [set_metrics t (Some m)] starts accounting every message into [m]:
    counters [net.sent], [net.bytes.sent], [net.sent.<kind>],
    [net.bytes.sent.<kind>] at send time and [net.delivered] /
    [net.dropped] / [net.to_dead] plus [net.bytes.delivered] as
    outcomes resolve. Dropped or dead-lettered messages add no
    delivered bytes, so bandwidth figures stay trustworthy under loss.
    [None] stops; like tracing, the disabled path costs nothing. *)
val set_metrics : 'msg t -> Unistore_obs.Metrics.t option -> unit

val metrics : 'msg t -> Unistore_obs.Metrics.t option

(** {2 Fault-injection hooks}

    Used by {!Faults} to run deterministic failure scenarios; all of
    these default to "no fault" and cost nothing when unused. *)

(** Current iid message-loss probability. *)
val drop : 'msg t -> float

(** [set_drop t p] changes the loss probability mid-run (loss bursts).
    Raises [Invalid_argument] outside [0,1]. *)
val set_drop : 'msg t -> float -> unit

(** [set_slow t peer ~factor] multiplies every latency sample on links
    touching [peer] by [factor] (>= 1); the slower endpoint of a link
    wins. [clear_slow] restores normal speed. *)
val set_slow : 'msg t -> int -> factor:float -> unit

val clear_slow : 'msg t -> int -> unit
val slow_factor : 'msg t -> int -> float

(** [set_partition t peer ~group] assigns [peer] to a partition group;
    messages between different groups are dropped at send time.
    Unassigned peers are in group [0]. [clear_partitions] heals the
    network. *)
val set_partition : 'msg t -> int -> group:int -> unit

val clear_partitions : 'msg t -> unit

(** {2 Per-peer service queue}

    A peer with a service time processes inbound messages one at a
    time, [ms] simulated ms each; arrivals queue FIFO behind queued and
    in-service work, so queueing delay and overload are first-class
    observables. With a metrics registry attached, each accepted
    message accounts [queue.msgs], [queue.delayed] (wait > 0) and the
    [queue.wait_ms] / [queue.depth] histograms; with a tracer attached,
    a delayed acceptance records a ["queue.wait"] marker event. The
    default service time is 0 — the classic infinite-capacity peer —
    and that path costs nothing per delivery. *)

(** [set_service t peer ~ms] sets [peer]'s per-message service time in
    simulated ms; [~ms:0.0] removes the service model (and clears any
    backlog bookkeeping). Raises [Invalid_argument] if [ms < 0]. *)
val set_service : 'msg t -> int -> ms:float -> unit

(** [set_service_all t ~ms] applies {!set_service} to every registered
    peer. *)
val set_service_all : 'msg t -> ms:float -> unit

val service_ms : 'msg t -> int -> float

(** Messages accepted by [peer]'s queue whose handler has not run yet
    (queued + in service). 0 without a service model. *)
val queue_depth : 'msg t -> int -> int

(** [register t peer handler] installs [handler] for [peer] and marks it
    alive. Re-registering replaces the handler. *)
val register : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit

(** [send t ~src ~dst msg] counts the message and schedules delivery. A
    self-send is delivered after a negligible local delay. *)
val send : 'msg t -> src:int -> dst:int -> 'msg -> unit

(** [kill t peer] makes [peer] unreachable; in-flight messages to it are
    lost at delivery time. O(1) (swap-remove from the alive set). *)
val kill : 'msg t -> int -> unit

(** [revive t peer] brings a killed peer back (same handler and state).
    O(1). *)
val revive : 'msg t -> int -> unit

(** Registered peer ids, sorted. The list is cached and invalidated on
    {!register}/{!kill}/{!revive} — hot callers (gossip rounds) may call
    it per peer per round. *)
val peers : 'msg t -> int list

(** Number of registered peers (alive or dead). O(1). *)
val registered_count : 'msg t -> int

(** The simulator's global view, which no peer has: who is alive, who
    is cut off from whom. Peer code reads it only on a line marked
    [(* srclint: allow oracle <owner> *)] (DESIGN.md, "What a peer may
    know"). *)
module Oracle : sig
  (** O(1): an array-index probe into the alive set. *)
  val is_alive : 'msg t -> int -> bool

  (** Whether a message from [src] to [dst] is cut by a partition. *)
  val partitioned : 'msg t -> src:int -> dst:int -> bool

  (** Alive peer ids, sorted; cached like {!peers}. *)
  val alive_peers : 'msg t -> int list

  (** Number of currently alive peers. O(1). *)
  val alive_count : 'msg t -> int

  (** [random_alive t rng] draws a uniformly random alive peer using
      [rng], or [None] if none are alive. O(1); draws exactly one value
      from [rng] when the alive set is non-empty. *)
  val random_alive : 'msg t -> Unistore_util.Rng.t -> int option
end

(** Messages sent since creation (monotone, never reset); every cost
    delta reads it. *)
val total_sent : 'msg t -> int

val sim : 'msg t -> Sim.t
val latency : 'msg t -> Latency.t
