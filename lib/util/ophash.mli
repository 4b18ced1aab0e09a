(** Order-preserving hashing.

    P-Grid assigns data to key partitions with a {e prefix-preserving,
    order-preserving} hash function: nearby values hash to nearby keys, so
    range and prefix queries map to contiguous regions of the trie. This
    module provides the sortable byte encoding used as that hash.

    The encoding maps each value to a byte string such that byte-string
    lexicographic order equals value order within a type. Different types
    occupy disjoint, tagged regions of the key space. Routing uses a fixed
    number of leading bits of the encoding (see {!to_bitkey}); local stores
    keep the full encoding so truncation never loses data, only routing
    precision. *)

(** Width in bits of routing keys derived from encodings (32 bytes: enough
    for the index-family tag, attribute name and a value prefix to fall
    inside the routed portion). *)
val routing_bits : int

(** [encode_string s] is the sortable encoding of a raw string (identity:
    byte strings are already ordered). *)
val encode_string : string -> string

(** [encode_int i] is an 8-byte big-endian offset-binary encoding:
    [i1 <= i2] iff [encode_int i1 <= encode_int i2]. *)
val encode_int : int -> string

(** [encode_float f] is the IEEE-754 total-order trick: flip the sign bit
    of non-negative floats, complement all bits of negative ones. Orders
    all non-NaN floats correctly. *)
val encode_float : float -> string

(** [write_int b off i] writes [encode_int i] into the 8 bytes of [b] at
    [off]; likewise [write_float] for {!encode_float}. *)
val write_int : Bytes.t -> int -> int -> unit

val write_float : Bytes.t -> int -> float -> unit

(** [decode_int_at s off] inverts {!encode_int} on the 8 bytes of [s] at
    [off]; likewise [decode_float_at] for {!encode_float}. Raise
    [Invalid_argument] if fewer than 8 bytes are left. *)
val decode_int_at : string -> int -> int

val decode_float_at : string -> int -> float

(** [to_bitkey enc] truncates/pads the encoding to {!routing_bits} bits;
    preserves order up to truncation ties. *)
val to_bitkey : string -> Bitkey.t

(** [bitkey_of_string s] is [to_bitkey (encode_string s)]. *)
val bitkey_of_string : string -> Bitkey.t

(** [range_region ~lo ~hi] is the pair of routing keys delimiting the
    region responsible for encodings in [[lo, hi]] (inclusive). The high
    bound is padded with ones so that all extensions of [hi]'s truncation
    are included. *)
val range_region : lo:string -> hi:string -> Bitkey.t * Bitkey.t

(** [prefix_region p] is the key region covered by all strings extending
    byte-string prefix [p]. *)
val prefix_region : string -> Bitkey.t * Bitkey.t
