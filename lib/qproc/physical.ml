module Ast = Unistore_vql.Ast

type step = {
  pattern : Ast.pattern;
  access : Cost.access;
  bindjoin : bool;
  residual : Ast.expr list;
  est : Cost.estimate;
}

type t = {
  steps : step list;
  post_filters : Ast.expr list;
  order : Ast.order_clause option;
  projection : string list option;
  distinct : bool;
  limit : int option;
  expansions : (string * string list) list;
  total_est : Cost.estimate;
  branches : t list;
}

let post_only ?(post_filters = []) ?(expansions = []) (q : Ast.query) =
  {
    steps = [];
    post_filters;
    order = q.Ast.order;
    projection = q.Ast.projection;
    distinct = q.Ast.distinct;
    limit = q.Ast.limit;
    expansions;
    total_est = { Cost.messages = 0.0; latency = 0.0; cardinality = 0.0 };
    branches = [];
  }

let rec pp fmt t =
  Format.fprintf fmt "@[<v>plan (est: %a):@," Cost.pp_estimate t.total_est;
  List.iteri
    (fun i s ->
      Format.fprintf fmt "  %d. %a via %s%a%s@," (i + 1) Ast.pp_pattern s.pattern
        (if s.bindjoin then "bind-join/" else "")
        Cost.pp_access s.access
        (if s.residual = [] then ""
         else
           " | "
           ^ String.concat " AND "
               (List.map (fun e -> Format.asprintf "%a" Ast.pp_expr e) s.residual)))
    t.steps;
  if t.post_filters <> [] then
    Format.fprintf fmt "  post-filters: %s@,"
      (String.concat " AND " (List.map (fun e -> Format.asprintf "%a" Ast.pp_expr e) t.post_filters));
  (match t.order with
  | Some (Ast.OrderBy items) ->
    Format.fprintf fmt "  order-by: %s@," (String.concat "," (List.map fst items))
  | Some (Ast.Skyline items) ->
    Format.fprintf fmt "  skyline: %s@," (String.concat "," (List.map fst items))
  | None -> ());
  (match t.limit with Some n -> Format.fprintf fmt "  limit: %d@," n | None -> ());
  if t.expansions <> [] then
    Format.fprintf fmt "  mapping expansions: %s@,"
      (String.concat "; "
         (List.map (fun (a, eqs) -> a ^ " -> {" ^ String.concat "," eqs ^ "}") t.expansions));
  List.iteri (fun i b -> Format.fprintf fmt "  UNION branch %d:@,  %a@," (i + 1) pp_branch b) t.branches;
  Format.fprintf fmt "@]"

and pp_branch fmt t = pp fmt t
