(** Sequencing for continuation-passing code.

    Every asynchronous operation in the stack takes a continuation [k]
    and calls it exactly once, at the tail of the handler that finishes
    it (DESIGN.md, "Execution model"). These combinators chain such
    operations one after another ({!fold}, {!map}): element [i + 1]
    starts only from inside element [i]'s continuation. That is the
    order a blocking loop would give, so RNG draws and send order do not
    change. {!window} is the bounded fan-out and {!all} the one-round
    fan-out, the same code with no bound. {!start} splits one operation
    in two: start it now, take its answer later, so an operation that
    reads nothing of the ones before it can overlap them. *)

(** [fold f acc xs ~k] threads [acc] through [f] over [xs], one element
    at a time, then calls [k] with the final accumulator. *)
val fold : ('a -> 'b -> k:('a -> unit) -> unit) -> 'a -> 'b list -> k:('a -> unit) -> unit

(** [map f xs ~k] runs [f] over [xs] one element at a time and calls
    [k] with the results in list order. *)
val map : ('a -> k:('b -> unit) -> unit) -> 'a list -> k:('b list -> unit) -> unit

(** [all f xs ~k] starts [f] on every element of [xs] in list order, all
    in the current event, and calls [k] exactly once, after the last
    element answers, with the results in list order (whatever order they
    arrived in). On [[]] it calls [k []] at once. A caller that needs
    arrival order does that work inside the element's continuation. *)
val all : ('a -> k:('b -> unit) -> unit) -> 'a list -> k:('b list -> unit) -> unit

(** [window n f xs ~k] keeps at most [n] elements of [xs] outstanding:
    it starts the first [n] in list order, in the current event, and
    the next one each time an element answers. It calls [k] exactly
    once, after the last element answers, with the results in list
    order. On [[]] it calls [k []] at once. With [n >= List.length xs]
    it is {!all}. Raises [Invalid_argument] if [n < 1]. *)
val window : int -> ('a -> k:('b -> unit) -> unit) -> 'a list -> k:('b list -> unit) -> unit

(** [start f] starts [f] now, in the current event, and returns a
    [take] for its answer: [take ~k] calls [k] with it, at once if [f]
    has answered, else from inside [f]'s continuation when it does.
    [f]'s continuation still fires exactly once; [take] may be called
    any number of times, and each call's [k] fires exactly once. Takers
    waiting together fire in the order they called [take]. *)
val start : (k:('a -> unit) -> unit) -> k:('a -> unit) -> unit
