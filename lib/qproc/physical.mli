(** Physical query plans.

    A plan is an ordered list of pattern-evaluation steps (the join
    order), each annotated with its chosen access path and whether it
    runs as a bind-join (per-binding direct lookups using already-bound
    variables — the distributed analogue of an index nested-loop join) or
    as a bulk access followed by a hash join at the evaluating site.
    Ranking/projection/limit run after the joins. *)

module Ast = Unistore_vql.Ast

type step = {
  pattern : Ast.pattern;
  access : Cost.access;  (** used when [bindjoin = false] *)
  bindjoin : bool;
  residual : Ast.expr list;
      (** filters whose variables are all bound after this step; applied
          eagerly to shrink intermediate results *)
  est : Cost.estimate;  (** predicted cost of this step *)
}

type t = {
  steps : step list;
  post_filters : Ast.expr list;  (** whatever could not be attached to a step *)
  order : Ast.order_clause option;
  projection : string list option;
  distinct : bool;
  limit : int option;
  expansions : (string * string list) list;
      (** schema-mapping expansion: attribute -> equivalent attributes *)
  total_est : Cost.estimate;
  branches : t list;
      (** plans of additional UNION branches (empty for plain queries) *)
}

(** [post_only ?post_filters ?expansions q] is the plan without steps
    that only post-processes rows: [post_filters] (default none), then
    [q]'s ordering, projection, DISTINCT and LIMIT. Its estimate is
    zero. *)
val post_only :
  ?post_filters:Ast.expr list -> ?expansions:(string * string list) list -> Ast.query -> t

val pp : Format.formatter -> t -> unit
