(** Index key construction — the three-way indexing of the paper's §2.

    Every triple [(OID, A, v)] is inserted under three keys:
    - [oid_key OID]: reproduce whole logical tuples from their unique key;
    - [attr_value_key A v] (the "A#v" index): queries of the form
      [A op v], including ranges, on a named attribute;
    - [value_key v]: queries on an arbitrary attribute ("keyword"-style
      access by value alone).

    Optionally, string values are additionally indexed under their
    q-grams ([qgram_key]) to support edit-distance predicates (the
    NetDB'06 q-gram index).

    NUL bytes separate components; the leading tag byte partitions the
    key space by index family, so each family is a contiguous region. *)

(** [oid_key oid] *)
val oid_key : string -> string

(** Prefix covering the whole OID region — every triple of every logical
    tuple lives in \[[oid_prefix],[oid_region_end]), and all triples of
    one tuple share a single key (so they are collocated on one peer,
    which is what makes leaf-local per-tuple reductions sound). *)
val oid_prefix : string

(** Exclusive upper bound of the OID region. *)
val oid_region_end : string

(** [attr_value_key attr v] *)
val attr_value_key : string -> Value.t -> string

(** [value_key v] *)
val value_key : Value.t -> string

(** [qgram_key gram] *)
val qgram_key : string -> string

(** Bounds of the [A#v] region of one attribute restricted to a value
    range (inclusive). *)
val attr_range : string -> lo:Value.t -> hi:Value.t -> string * string

(** Prefix covering the whole [A#v] region of one attribute. *)
val attr_prefix : string -> string

(** Prefix covering string values of one attribute extending
    [string_prefix] (substring/prefix search on an attribute). *)
val attr_string_prefix : string -> string_prefix:string -> string

(** q-gram length used by the similarity index. *)
val q : int

(** [edist_indexable ~pattern ~d] holds when the q-gram index is
    complete for [edist(x, pattern) <= d]: every string within distance
    [d] shares at least one q-gram with [pattern]. The store
    ({!Tstore.similar}) and the planner both decide by this rule. *)
val edist_indexable : pattern:string -> d:int -> bool

(** [substring_indexable ~pattern] holds when the q-gram index can
    answer [contains(x, pattern)]: [pattern] has at least one q-gram. *)
val substring_indexable : pattern:string -> bool
