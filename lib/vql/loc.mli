(** Source locations for VQL diagnostics.

    A location is a half-open byte-offset span [[start, stop)] into the
    query source. Spans originate in the lexer, are widened by the parser
    to cover whole clauses, and end up on AST nodes so that downstream
    analyzers (see [unistore_analysis]) can point at the offending query
    text. Line/column conversion is done lazily against the source string,
    so carrying spans costs two ints per node. *)

type t = { start : int; stop : int }

(** A span that points nowhere (synthesized AST nodes). *)
val dummy : t

val is_dummy : t -> bool

(** [make start stop] with [stop] clamped to [>= start]. *)
val make : int -> int -> t

(** Smallest span covering both; [dummy] is the identity. *)
val union : t -> t -> t

(** 1-based line/column position. *)
type pos = { line : int; col : int }

(** [pos_of_offset src off] converts a byte offset to a line/column
    position in [src] (offsets past the end map to the final position). *)
val pos_of_offset : string -> int -> pos

(** [line_at src ln] is the text of 1-based line [ln] (without the
    newline); [""] if out of range. *)
val line_at : string -> int -> string
