(** Exact-negative membership over the (key, item id) pairs of one
    per-peer store: a Bloom filter.

    [mem f ~key id = false] is certain: the pair was never {!insert}ed
    since the filter was created or last {!reset}. [true] only means
    "maybe" — the store falls back to its exact walk of the key's items,
    so answers never depend on the filter. Removing an item leaves its
    bits set, which can only cause false positives.

    A filter is sized for four times the pairs it is created for. Once
    that many were inserted it is {!full}, and the store rebuilds it
    from its current items, so the rebuild cost is amortized O(1) per
    insert. Stores of at most {!min_ids} items carry no filter. *)

type t

(** Stores holding at most this many items are walked, not filtered. *)
val min_ids : int

(** [create n] is an empty filter sized for [4 * max n min_ids] pairs. *)
val create : int -> t

(** [insert f ~key id] sets the pair's bits. [true] iff the pair was
    certainly absent before; only those inserts count towards {!full}
    (a "maybe" set no new bit). *)
val insert : t -> key:string -> string -> bool

(** [false] iff the pair is certainly absent. *)
val mem : t -> key:string -> string -> bool

(** The filter holds its sized number of pairs: rebuild it. *)
val full : t -> bool

(** Clear every bit, keeping the allocation (for a store emptied by
    [clear] and refilled to about its old size). *)
val reset : t -> unit

(** Heap bytes of the filter (record and bit array), in the
    {!Store_intf.stats} memory model. *)
val bytes : t -> int
