(** Triples: the universal storage's unit of data.

    A relational tuple [(OID, v1, ..., vn)] over schema [R(A1, ..., An)]
    is stored vertically as [n] triples [(OID, Ai, vi)] — the paper's §2
    layout, identical to RDF. Attribute names may carry a namespace
    prefix ["ns:attr"] to distinguish relations; null values are simply
    absent triples. *)

type t = { oid : string; attr : string; value : Value.t }

(** [make ~oid ~attr value] validates and builds a triple. [attr] and
    [oid] must be non-empty and must not contain NUL bytes (reserved as
    the index-key separator). *)
val make : oid:string -> attr:string -> Value.t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** Namespace helpers: ["dblp:title"] has namespace ["dblp"] and local
    name ["title"]; an un-prefixed attribute has namespace [""]. *)
val namespace : t -> string

val local_name : t -> string

(** [tuple_to_triples ~oid fields] is the vertical decomposition of one
    logical tuple. *)
val tuple_to_triples : oid:string -> (string * Value.t) list -> t list

(** [triples_to_tuples ts] regroups triples by OID, preserving the first
    occurrence order of OIDs; multi-valued attributes yield repeated
    fields. *)
val triples_to_tuples : t list -> (string * (string * Value.t) list) list
