(** Typed attribute values.

    UniStore's universal relation stores heterogeneous data; values are
    dynamically typed. Each type has an order-preserving byte encoding
    (see {!encode}) so that the DHT's order-preserving hash keeps value
    order, enabling range predicates like [?age >= 30] as overlay range
    queries. *)

type t =
  | S of string
  | I of int
  | F of float
  | B of bool

(** Value ordering: within a type, natural order; across types, by type
    tag (B < F < I < S) — heterogeneous comparisons are allowed but
    queries normally stay within one type. *)
val compare : t -> t -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Human-readable rendering ([S] values unquoted). *)
val to_display : t -> string

(** [encode v] is a type-tagged byte string such that
    [String.compare (encode a) (encode b)] agrees with [compare a b]. *)
val encode : t -> string

(** A hash consistent with {!equal}. *)
val hash : t -> int

(** [encoded_length v] is [String.length (encode v)], without encoding. *)
val encoded_length : t -> int

(** Inverse of {!encode}. [None] on malformed input. *)
val decode : string -> t option

(** [decode_at s ~off ~len] decodes the [len] bytes of [s] at [off],
    without copying them out first. *)
val decode_at : string -> off:int -> len:int -> t option

(** Minimum/maximum encodings of the same type as [v] — the full value
    range used for open-ended predicates ([?x >= c] becomes the range
    [[encode c, type_max v]]). *)
val type_min : t -> string

val type_max : t -> string

(** The string payload of an [S] value, if any. *)
val as_string : t -> string option

val as_int : t -> int option

(** Numeric view: [I] and [F] unify for comparisons in filters. *)
val to_float : t -> float option
