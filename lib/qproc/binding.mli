(** Variable bindings: the tuples flowing through query plans.

    A binding is an array of value slots over a {!schema}, the sorted
    names of the variables it may bind. The executor lays every row of a
    query on one shared schema, so joins compare slots and patterns are
    compiled to slots once per step. Bindings over different schemas
    still combine: {!compatible} and {!match_triple_into} first lay both
    out on the union of their schemas. Everything that reads a binding by
    name ({!vars}, {!bindings}, {!fingerprint}, ...) sees only the bound
    variables, in name order. *)

module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple
module Ast = Unistore_vql.Ast

type t

(** Variable names, sorted and deduplicated. *)
type schema

val schema : string list -> schema

(** [empty_of s] binds nothing over [s]. *)
val empty_of : schema -> t

(** [empty] binds nothing over the empty schema. *)
val empty : t

val find : t -> string -> Value.t option

(** [getter v] is [fun t -> find t v] with [v]'s slot resolved once per
    schema instead of once per row. *)
val getter : string -> t -> Value.t option

val bindings : t -> (string * Value.t) list
val vars : t -> string list

(** [bind t v x] extends; [None] if [v] is already bound to a different
    value (consistency check). *)
val bind : t -> string -> Value.t -> t option

(** [match_triple pattern triple] tries to unify a triple with a pattern
    (constants must match; variables bind). *)
val match_triple : Ast.pattern -> Triple.t -> t option

(** [match_triple_into base pattern triple] unifies under an existing
    binding. *)
val match_triple_into : t -> Ast.pattern -> Triple.t -> t option

(** A pattern with its variables resolved to the slots of one schema. *)
type pattern

(** [compile s p]. Raises [Invalid_argument] if a variable of [p] is not
    in [s]. *)
val compile : schema -> Ast.pattern -> pattern

(** [match_compiled base p triple] is [match_triple_into] for a [base]
    over [p]'s schema; a failed match allocates nothing. *)
val match_compiled : t -> pattern -> Triple.t -> t option

(** [compatible a b] merges two bindings if they agree on shared
    variables. *)
val compatible : t -> t -> t option

(** {2 Join keys on slots}

    For rows over one schema: [shared_slots a b] are the slots bound in
    both; [hash_at slots t] hashes [t]'s values there ([-1] if one is
    unbound) and [equal_at slots a b] compares them with
    {!Value.equal}. *)

val shared_slots : t -> t -> int array
val hash_at : int array -> t -> int
val equal_at : int array -> t -> t -> bool

(** [join_key vars t] projects the join attributes to a hashable key;
    [None] if some var is unbound. *)
val join_key : string list -> t -> string option

(** [project vars t] keeps only [vars] (unbound projected vars are
    dropped silently). Like {!getter}, [project vars] resolves its slots
    once per schema, so apply it once to project many rows. *)
val project : string list -> t -> t

(** Stable fingerprint of the full binding (for DISTINCT). *)
val fingerprint : t -> string

(** {2 Row batches}

    The rows a mutant plan ships are coded as one batch on one variable
    set ({!Unistore_pgrid.Wire.rows_bytes}). *)

(** [batch_vars rows] is the variables every row of [rows] binds, in
    name order ([[]] for no rows). Raises [Invalid_argument] if two rows
    bind different variables. *)
val batch_vars : t list -> string list

(** [iter_values f t] calls [f] on [t]'s bound values in name order. *)
val iter_values : (Value.t -> unit) -> t -> unit

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** SPARQL-style lookup function for {!Unistore_vql.Algebra.eval_pred}. *)
val lookup : t -> string -> Value.t option
