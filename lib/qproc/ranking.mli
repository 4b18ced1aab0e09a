(** Ranking operators: ORDER BY, top-N, skyline.

    These are the paper's "advanced" operators ([SKYLINE OF], top-N);
    they run at the query origin over the joined bindings. The skyline
    uses block-nested-loop with dominance pruning. *)

module Ast = Unistore_vql.Ast

(** The ORDER BY comparator: compares two rows by the given
    variables/directions (unbound last, numeric types unified). Apply it
    to the items once: the variables are resolved to slots then. *)
val order_cmp : (string * Ast.dir) list -> Binding.t -> Binding.t -> int

(** Stable sort by the given variables/directions. Unbound values sort
    last; numeric types unify. *)
val order_by : (string * Ast.dir) list -> Binding.t list -> Binding.t list

(** [top_n n items rows]: ORDER BY + LIMIT fused through a bounded heap
    ({!Unistore_util.Topk}) — O(R log n), same rows as sorting then
    truncating. *)
val top_n : int -> (string * Ast.dir) list -> Binding.t list -> Binding.t list

(** [dominates goals a b]: [a] is at least as good as [b] on every goal
    dimension and strictly better on at least one. Rows with missing or
    non-comparable dimensions never dominate nor get dominated. Like
    {!order_cmp}, apply it to the goals once per row set. *)
val dominates : (string * Ast.goal) list -> Binding.t -> Binding.t -> bool

(** The Pareto-optimal subset under the goal list, in input order.
    Implementation: rows are presorted by a dominance-compatible monotone
    score (sum of oriented goal dimensions), after which the
    block-nested-loop window only grows and each row needs one
    dominated-by-window check. Agrees with {!skyline_bnl} exactly. *)
val skyline : (string * Ast.goal) list -> Binding.t list -> Binding.t list

(** Reference block-nested-loop skyline (two-way dominance checks, no
    presort) — the equivalence oracle {!skyline} is tested against. *)
val skyline_bnl : (string * Ast.goal) list -> Binding.t list -> Binding.t list
