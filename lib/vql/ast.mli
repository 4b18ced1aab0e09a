(** VQL abstract syntax.

    VQL (Vertical Query Language) is the paper's SPARQL-derived language:
    triple patterns in braces with [?]-variables, optional [FILTER]
    predicates (including the [edist] similarity function), SQL-style
    [SELECT]/[ORDER BY]/[LIMIT] and the ranking extension [SKYLINE OF]. *)

module Value = Unistore_triple.Value

type term =
  | TVar of string  (** [?name] *)
  | TConst of Value.t

(** One triple pattern [(subj, attr, obj)]. In the universal relation
    model [subj] ranges over OIDs, [attr] over attribute names, [obj]
    over values. [span] covers the pattern's source text ({!Loc.dummy}
    for synthesized patterns). *)
type pattern = { subj : term; attr : term; obj : term; span : Loc.t }

(** [mk_pattern ?span subj attr obj] builds a pattern; [span] defaults
    to {!Loc.dummy}. *)
val mk_pattern : ?span:Loc.t -> term -> term -> term -> pattern

type cmpop = Eq | Neq | Lt | Le | Gt | Ge

type expr =
  | EVar of string
  | EConst of Value.t
  | ECmp of cmpop * expr * expr
  | EAnd of expr * expr
  | EOr of expr * expr
  | ENot of expr
  | EEdist of expr * expr  (** [edist(a, b)]: numeric edit distance *)
  | EContains of expr * expr  (** [contains(a, b)]: substring test *)
  | EPrefix of expr * expr  (** [prefix(a, b)]: prefix test *)

type dir = Asc | Desc
type goal = Min | Max

type order_clause =
  | OrderBy of (string * dir) list
  | Skyline of (string * goal) list  (** [ORDER BY SKYLINE OF ?x MIN, ?y MAX] *)

type query = {
  distinct : bool;
  projection : string list option;  (** [None] = [SELECT *] *)
  patterns : pattern list;
  filters : expr list;
  filter_spans : Loc.t list;
      (** spans of [filters], positionally; may be shorter (synthesized
          queries) — use {!filter_span} *)
  union_branches : (pattern list * expr list) list;
      (** additional [UNION { ... }] groups: each evaluated independently,
          results combined (bag semantics unless [DISTINCT]) *)
  union_filter_spans : Loc.t list list;
      (** spans of each union branch's filters, like [filter_spans];
          may be shorter — use {!branch_filter_span} *)
  union_spans : Loc.t list;
      (** span of each union branch's braces, like [filter_spans];
          may be shorter — use {!branch_span} *)
  order : order_clause option;
  limit : int option;
  proj_span : Loc.t;  (** span of the projection list *)
  order_span : Loc.t;  (** span of the [ORDER BY] clause *)
  limit_span : Loc.t;  (** span of the [LIMIT] clause *)
}

(** Build a query from its pattern list; every other component is
    optional and spans default to {!Loc.dummy}. Keeps construction
    sites insulated from future field additions. *)
val mk_query :
  ?distinct:bool ->
  ?projection:string list ->
  ?filters:expr list ->
  ?filter_spans:Loc.t list ->
  ?union_branches:(pattern list * expr list) list ->
  ?union_filter_spans:Loc.t list list ->
  ?union_spans:Loc.t list ->
  ?order:order_clause ->
  ?limit:int ->
  ?proj_span:Loc.t ->
  ?order_span:Loc.t ->
  ?limit_span:Loc.t ->
  pattern list ->
  query

(** [filter_span q i] is the span of the [i]-th filter, or {!Loc.dummy}
    if unrecorded. *)
val filter_span : query -> int -> Loc.t

(** [branch_filter_span q b i] is the span of the [i]-th filter of
    branch [b] (0 = the main group, [b >= 1] = [union_branches] entry
    [b - 1]), or {!Loc.dummy} if unrecorded. *)
val branch_filter_span : query -> int -> int -> Loc.t

(** [branch_span q b] is the span of union branch [b] (as in
    {!branch_filter_span}, [b >= 1]), or {!Loc.dummy} if unrecorded. *)
val branch_span : query -> int -> Loc.t

(** Variables mentioned by a pattern / expression / query (sorted,
    deduplicated). *)
val pattern_vars : pattern -> string list

val expr_vars : expr -> string list
val query_vars : query -> string list

val pp_term : Format.formatter -> term -> unit
val pp_pattern : Format.formatter -> pattern -> unit
val pp_expr : Format.formatter -> expr -> unit
val pp_query : Format.formatter -> query -> unit
