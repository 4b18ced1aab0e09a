(** Deterministic views of [Hashtbl] contents.

    [Hashtbl.fold]/[Hashtbl.iter] visit bindings in hash-bucket order —
    an order that depends on key hashes and insertion history, not on
    any property of the data. Any such order that escapes into protocol
    behavior (message contents, send order, diagnostics) is a latent
    violation of the simulator's determinism contract (same seed,
    byte-identical trace — see DESIGN.md, "The determinism contract").

    These helpers are the sanctioned way to get table contents out in a
    reproducible order: they snapshot the bindings and sort by key.
    [srclint]'s [unordered-iteration] rule recognizes them (and
    [|> List.sort]-style pipelines) as normalized; a bare escaping
    [Hashtbl.fold] is flagged.

    Like [Hashtbl.fold], bindings shadowed by [Hashtbl.add] are all
    included; the codebase uses [Hashtbl.replace] throughout, so keys
    are unique in practice. The default comparator is the polymorphic
    [compare]: fine for the string/int/tuple-of-those keys used here,
    pass [~cmp] for anything with a custom order. *)

val sorted_bindings : ?cmp:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** All bindings, sorted by key. *)

val sorted_iter : ?cmp:('a -> 'a -> int) -> ('a -> 'b -> unit) -> ('a, 'b) Hashtbl.t -> unit
(** [sorted_iter f tbl] applies [f] to every binding in ascending key
    order. The bindings are snapshotted first, so [f] may mutate [tbl]. *)
