(** Bloom filters for semi-join reduction.

    A filter is sized once for the number of keys it will hold, at
    {!bits_per_key} bits per key, and probes {!hashes} bit positions
    per key by enhanced double hashing: position [i] (from 0) of a key
    is [(h1 + i * h2 + i (i - 1) (i - 2) / 6) mod m], with [h1] and
    [h2] two hashes of the key's bytes and [m] the filter's bit count.
    Every hash is a fixed function of the bytes, so two filters built
    from the same keys hold the same bits on every run and every
    host. At these constants the
    false-positive rate is about 0.9%; there are no false negatives. A
    filter of a few keys has few bits, so its rate varies more from one
    key set to another (about 1.5% on average below 5 keys). *)

type t

(** Bits per key the filter is sized for: 10. *)
val bits_per_key : int

(** Bit positions probed per key: 7. *)
val hashes : int

(** [create n] is an empty filter sized for [n] keys: [m] bits, [m] the
    smallest multiple of 8 that is at least [bits_per_key * n] and at
    least 8. *)
val create : int -> t

(** [of_list keys] is a filter sized for the number of {e distinct}
    [keys], holding all of them. *)
val of_list : string list -> t

val add : t -> string -> unit
val mem : t -> string -> bool

(** [mem_sub t s ~off ~len] is [mem t (String.sub s off len)], without
    copying. Raises [Invalid_argument] if [off] and [len] do not name a
    substring of [s]. *)
val mem_sub : t -> string -> off:int -> len:int -> bool

(** Wire size in bytes: the bit array's [m / 8] bytes after a varint
    (LEB128, seven bits per byte) holding [m / 8]. The hash constants
    are fixed, so they do not travel. *)
val bytes : t -> int

(** The bit array, bit [j] in byte [j / 8] at weight [1 lsl (j mod 8)]. *)
val bits : t -> string
