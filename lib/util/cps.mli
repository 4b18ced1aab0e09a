(** Sequencing for continuation-passing code.

    Every asynchronous operation in the stack takes a continuation [k]
    and calls it exactly once, at the tail of the handler that finishes
    it (DESIGN.md, "Execution model"). These combinators chain such
    operations one after another: element [i + 1] starts only from
    inside element [i]'s continuation. That is the order a blocking
    loop would give, so RNG draws and send order do not change. *)

(** [fold f acc xs ~k] threads [acc] through [f] over [xs], one element
    at a time, then calls [k] with the final accumulator. *)
val fold : ('a -> 'b -> k:('a -> unit) -> unit) -> 'a -> 'b list -> k:('a -> unit) -> unit

(** [map f xs ~k] runs [f] over [xs] one element at a time and calls
    [k] with the results in list order. *)
val map : ('a -> k:('b -> unit) -> unit) -> 'a list -> k:('b list -> unit) -> unit
