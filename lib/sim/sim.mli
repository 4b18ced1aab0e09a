(** Discrete-event simulation core.

    The whole UniStore reproduction runs inside one of these: every network
    message delivery, timeout and maintenance action is an event on the
    queue. Time is in {e milliseconds} of simulated wall clock. Execution
    is single-threaded and deterministic: events with equal timestamps run
    in scheduling order.

    {b Representation.} A simulation is just a clock, a {!Pqueue} of
    [unit -> unit] closures keyed by absolute firing time, and a counter
    of executed events. All state an event touches lives in the closures'
    environments; the kernel itself holds none, and drops each closure
    from the queue once it has run or been cancelled. The event loop is a
    tight pop-and-call: O(log n) per event in the queue size, with no
    allocation beyond the popped pair and what the event bodies
    themselves do — this is what lets one process drain hundreds of
    thousands of events per real second at 100k+ simulated peers (see
    EXPERIMENTS.md at commit afe2490, "Scale").

    {b Deadlines.} A deadline that the work it guards can beat (a request
    timeout, a carrier hop's timeout) is a {!timer}: the operation that
    finishes first {!cancel}s it, and the queue then holds only events
    that can still do something. A cancelled timer never runs, never
    moves the clock and is counted in neither {!pending} nor
    {!processed}.

    {b Determinism.} The only ordering authority is the queue's
    [(time, sequence)] key. Given the same initial schedule and the same
    seeded {!Unistore_util.Rng} streams, every run executes the identical
    event sequence — the property the fault-replay tests
    ([test/test_scale.ml], [test/test_faults.ml]) assert byte-for-byte.
    Nothing here reads wall-clock time or global randomness. *)

type t

(** [create ()] is an empty simulation at time [0.0]. *)
val create : unit -> t

(** Current simulated time (ms). *)
val now : t -> float

(** [schedule t ~delay f] runs [f] at [now t +. delay]. [delay] must be
    non-negative. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f] at absolute [time] (clamped to now). *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** A handle on an event scheduled with {!timer}. *)
type timer

(** [timer t ~delay f] is {!schedule} that returns a handle for
    {!cancel}. *)
val timer : t -> delay:float -> (unit -> unit) -> timer

(** A handle of no event, for a record field that has no timer yet:
    cancelling it is a no-op. *)
val no_timer : timer

(** [cancel t h] removes [h]'s event from the queue in O(log n) if it
    has not run yet, and says whether it removed it. Cancelling twice,
    or after the event ran, is a no-op returning [false]. Other events
    keep their [(time, sequence)] order. *)
val cancel : t -> timer -> bool

(** Number of queued events. *)
val pending : t -> int

(** Total events executed so far. *)
val processed : t -> int

(** [run_until t pred] executes events in time order until [pred ()]
    becomes true (checked after every event) or the queue drains; returns
    [true] iff the predicate was satisfied. [max_events] (default 20M)
    guards against runaway loops. *)
val run_until : ?max_events:int -> t -> (unit -> bool) -> bool

(** [await t start] is the one way to wait for an asynchronous
    operation. It calls [start k], then runs events until [k] has been
    called, and returns [Some] of the first value passed to [k]. It
    returns [None] if the queue drains first. Events still queued when
    [k] fires stay queued. Only the public facade and tests call this:
    every layer below it is continuation-passing (DESIGN.md, "Execution
    model"). *)
val await : t -> (('a -> unit) -> unit) -> 'a option

(** [run_all t] drains the queue. *)
val run_all : ?max_events:int -> t -> unit

(** [run_for t ~duration] executes all events scheduled within the next
    [duration] ms and advances the clock to [now + duration]. *)
val run_for : ?max_events:int -> t -> duration:float -> unit
