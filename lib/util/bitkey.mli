(** Packed bitstrings.

    A [Bitkey.t] is an immutable sequence of bits. P-Grid uses bitstrings
    both as peer {e paths} (positions in the virtual binary trie, i.e. key
    space partitions) and as data {e keys} (the output of the
    order-preserving hash, see {!Ophash}).

    Bit 0 is the most significant bit: the trie root branches on bit 0.
    Lexicographic ordering on bitstrings equals numeric ordering of the
    corresponding left-aligned binary fractions, which is what makes the
    encoding order preserving. *)

type t

(** The empty bitstring (the trie root). *)
val empty : t

(** Number of bits. *)
val length : t -> int

(** [get t i] is bit [i] (0-based from the most significant bit).
    Raises [Invalid_argument] if out of bounds. *)
val get : t -> int -> bool

(** [append_bit t b] is [t] with [b] appended (one level deeper). *)
val append_bit : t -> bool -> t

(** [concat a b] appends all bits of [b] to [a]. *)
val concat : t -> t -> t

(** [take t n] is the first [n] bits of [t]. Raises if [n > length t]. *)
val take : t -> int -> t

(** [drop t n] is [t] without its first [n] bits. *)
val drop : t -> int -> t

(** [flip t i] is [t] with bit [i] inverted. *)
val flip : t -> int -> t

(** [is_prefix ~prefix t] holds iff [prefix] is a (possibly equal) prefix
    of [t]. *)
val is_prefix : prefix:t -> t -> bool

(** Length of the longest common prefix. *)
val common_prefix_len : t -> t -> int

(** Lexicographic comparison; a proper prefix sorts before its
    extensions. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** Hash compatible with {!equal}. *)
val hash : t -> int

(** [of_string "0110"] parses a bitstring literal. Raises
    [Invalid_argument] on characters other than ['0']/['1']. *)
val of_string : string -> t

(** Inverse of {!of_string}: e.g. ["0110"]. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** [of_int64 ~width x] is the [width] most significant of the low 64 bits
    of [x], MSB first. [width] must be within [0, 64]. *)
val of_int64 : width:int -> int64 -> t

(** [to_int64 t] packs the bits of [t] left-aligned into an int64 (bit 0 of
    [t] becomes the sign bit). Requires [length t <= 64]. Unsigned
    comparison of results equals {!compare} for equal-length keys. *)
val to_int64 : t -> int64

(** [successor t] is the next key of the same length in lexicographic
    order, or [None] if [t] is all ones. *)
val successor : t -> t option

(** [of_bytes_prefix s ~width] takes the first [width] bits of the byte
    string [s] (MSB of byte 0 first), zero-padding if [s] is short. The
    result preserves the lexicographic order of byte strings up to
    [width]-bit truncation: [s1 <= s2] implies
    [compare (of_bytes_prefix s1) (of_bytes_prefix s2) <= 0]. *)
val of_bytes_prefix : string -> width:int -> t

(** [random rng n] is a uniform bitstring of length [n]. *)
val random : Rng.t -> int -> t

(** [pad t ~width b] extends [t] to [width] bits by appending bit [b];
    returns [t] unchanged if already at least [width] long. Padding with
    [false] gives the smallest key in [t]'s region, with [true] the
    largest: the region covered by prefix [p] in a [width]-bit key space is
    [[pad p ~width false, pad p ~width true]]. *)
val pad : t -> width:int -> bool -> t

(** All [2^n] bitstrings of length [n], in lexicographic order. [n] must be
    small (used by tests and the Fig. 2 example). *)
val enumerate : int -> t list
