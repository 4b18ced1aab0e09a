(** Filter analysis and evaluation for VQL.

    The query processor plans straight from the AST: this module turns a
    query's filters into per-variable constraints the cost-based
    optimizer can push into index lookups ({!var_constraints}), and
    evaluates filter expressions over bindings. Physical operator
    choice, join ordering and cost-based decisions live in
    [unistore_qproc]. *)

module Value = Unistore_triple.Value

(** {2 Filter analysis} — recognizing pushdown-able predicate shapes. *)

type constraint_ =
  | Ceq of Value.t  (** [?v = c] *)
  | Clower of Value.t * bool  (** [?v > c] / [?v >= c] (bool = inclusive) *)
  | Cupper of Value.t * bool  (** [?v < c] / [?v <= c] *)
  | Cedist of string * int  (** [edist(?v, 'p') <= d] *)
  | Cprefix of string  (** [prefix(?v, 'p')] *)
  | Ccontains of string  (** [contains(?v, 'p')] *)

(** [var_constraints filters] maps each variable to the index-exploitable
    constraints found among top-level conjuncts. Constraints are a sound
    over-approximation: applying the full residual filters afterwards is
    always required for [Neq], [Or], etc. *)
val var_constraints : Ast.expr list -> (string * constraint_ list) list

(** {2 Expression evaluation} (used by the executor) *)

(** [eval_expr lookup e] evaluates to a value; [None] on type errors or
    unbound variables. Comparisons yield [B]; [I]/[F] unify numerically. *)
val eval_expr : (string -> Value.t option) -> Ast.expr -> Value.t option

(** [eval_pred lookup e] is SPARQL-style: errors count as [false]. *)
val eval_pred : (string -> Value.t option) -> Ast.expr -> bool
