(** Exact-negative membership over the item ids stored under one hot
    store key: a Bloom filter.

    [mem f id = false] is certain: [id] was never {!add}ed since the
    filter was created. [mem f id = true] only means "maybe" — callers
    fall back to their exact walk of the key's items, so answers stay
    exact. Removing an id leaves its bits set, which can only cause
    false positives.

    A filter is sized for twice the ids it is created for; once that
    many were added, {!admit} asks the owner to rebuild it from the
    key's current ids, so the rebuild cost is amortized O(1) per
    insert. Keys of at most {!min_ids} ids get no filter at all. *)

type t

(** Keys holding at most this many ids are walked, not filtered. *)
val min_ids : int

(** [create n] is an empty filter sized for [2 * max n min_ids] ids. *)
val create : int -> t

val add : t -> string -> unit

(** [false] iff [id] is certainly absent. *)
val mem : t -> string -> bool

(** [admit filter ~walked id] records that the new [id] joined a key
    whose filter is [filter] and, if that key has none, whose other
    [walked] ids the caller walked. [true] means the caller must build
    the key a fresh filter from all its ids, [id] included: the key just
    outgrew {!min_ids}, or its filter is at capacity. *)
val admit : t option -> walked:int -> string -> bool

(** Heap bytes of the filter (record and bit array), in the
    {!Store_intf.stats} memory model. *)
val bytes : t -> int
