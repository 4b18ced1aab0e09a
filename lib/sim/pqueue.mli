(** Mutable min-heap keyed by [(priority, sequence)] — the event queue
    at the core of {!Sim}.

    The sequence number makes the ordering total and FIFO among equal
    priorities, which keeps the event loop deterministic: two events
    scheduled for the same instant run in the order they were scheduled,
    on every run. Removing an entry does not renumber the others, so the
    survivors keep their relative order.

    {b Representation.} A 4-ary implicit heap on parallel growable
    arrays — [float array] priorities, [int array] sequence numbers,
    ['a array] payloads and an [int array] of removal-handle ids. Keeping
    the keys in unboxed flat arrays (rather than heap-allocated
    [(float * int * 'a)] nodes) means sift-up/down compare machine floats
    with no pointer chasing and no per-event allocation; the 4-ary
    branching halves tree height, trading a few extra comparisons per
    level for fewer cache-missing levels on the [pop] path, which
    dominates in a simulator (every push is eventually popped). [push],
    [add], [pop] and [remove] are O(log₄ n); [peek_priority], [size] and
    [is_empty] are O(1). Arrays double on overflow, so a steady-state
    simulation allocates nothing per event beyond [pop]'s result and
    [add]'s handle; [clear] drops them.

    {b Retention.} Every slot not holding a queued entry holds the
    [filler] given to {!create}: once popped or removed, a payload (and
    whatever it captures) is unreachable from the queue. *)

type 'a t

(** [create ~filler ()] is an empty queue whose free slots hold
    [filler]. *)
val create : filler:'a -> unit -> 'a t

val is_empty : 'a t -> bool

(** Number of queued entries. *)
val size : 'a t -> int

(** [push t ~priority x] inserts [x]; ties broken by insertion order.
    O(log n), amortized allocation-free. *)
val push : 'a t -> priority:float -> 'a -> unit

(** The handle of an entry inserted with {!add}. *)
type handle

(** A handle of no entry: {!remove} of it is [false]. *)
val no_handle : handle

(** [add t ~priority x] is {!push} that returns a handle for {!remove}. *)
val add : 'a t -> priority:float -> 'a -> handle

(** [remove t h] takes [h]'s entry out of the queue if it is still
    queued, and says whether it was. After the entry was popped or
    removed, [remove] is a no-op returning [false]. O(log n). *)
val remove : 'a t -> handle -> bool

(** [pop t] removes and returns the minimum element, or [None] if empty.
    Among equal priorities, strictly first-pushed-first-popped. O(log n). *)
val pop : 'a t -> (float * 'a) option

(** [peek_priority t] is the minimum priority without removing it. O(1). *)
val peek_priority : 'a t -> float option

(** Empties the queue and drops its arrays. *)
val clear : 'a t -> unit
