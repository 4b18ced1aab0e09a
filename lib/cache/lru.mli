(** A small bounded map with least-recently-used eviction.

    The building block shared by the caching subsystem's levels: a
    hashtable of at most [capacity] entries where every read refreshes
    the entry's recency and inserting past capacity evicts the stalest
    entry. Recency is use order, not wall time, so the structure needs
    no clock and eviction order is deterministic, never hash-bucket
    order. [find], [put] and [remove] are O(1): entries sit on a
    recency list, and the victim is its least recently used end.

    Capacity 0 disables the structure entirely ([put] is a no-op), which
    is how experiments run their "caching off" arm without touching call
    sites. *)

type 'a t

val create : capacity:int -> 'a t

(** [set_capacity t c] re-bounds the table, evicting down to [c] if
    needed. [c = 0] empties and disables it. *)
val set_capacity : 'a t -> int -> unit

val capacity : 'a t -> int
val length : 'a t -> int

(** [find t key] returns the value and marks it most recently used. *)
val find : 'a t -> string -> 'a option

(** [peek t key] reads without touching recency (for inspection). *)
val peek : 'a t -> string -> 'a option

(** [put t key v] inserts or replaces, evicting the least recently used
    entry when the table is full. No-op at capacity 0. *)
val put : 'a t -> string -> 'a -> unit

val remove : 'a t -> string -> unit

(** [filter_inplace t f] keeps only entries satisfying [f key value];
    returns the number removed. *)
val filter_inplace : 'a t -> (string -> 'a -> bool) -> int

(** [iter t f] visits entries in key order (deterministic, not recency
    order). *)
val iter : 'a t -> (string -> 'a -> unit) -> unit
val clear : 'a t -> unit
