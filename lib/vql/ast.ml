module Value = Unistore_triple.Value

type term = TVar of string | TConst of Value.t

type pattern = { subj : term; attr : term; obj : term; span : Loc.t }

let mk_pattern ?(span = Loc.dummy) subj attr obj = { subj; attr; obj; span }

type cmpop = Eq | Neq | Lt | Le | Gt | Ge

type expr =
  | EVar of string
  | EConst of Value.t
  | ECmp of cmpop * expr * expr
  | EAnd of expr * expr
  | EOr of expr * expr
  | ENot of expr
  | EEdist of expr * expr
  | EContains of expr * expr
  | EPrefix of expr * expr

type dir = Asc | Desc
type goal = Min | Max

type order_clause = OrderBy of (string * dir) list | Skyline of (string * goal) list

type query = {
  distinct : bool;
  projection : string list option;
  patterns : pattern list;
  filters : expr list;
  filter_spans : Loc.t list;
  union_branches : (pattern list * expr list) list;
  union_filter_spans : Loc.t list list;
  union_spans : Loc.t list;
  order : order_clause option;
  limit : int option;
  proj_span : Loc.t;
  order_span : Loc.t;
  limit_span : Loc.t;
}

let mk_query ?(distinct = false) ?projection ?(filters = []) ?(filter_spans = [])
    ?(union_branches = []) ?(union_filter_spans = []) ?(union_spans = []) ?order ?limit
    ?(proj_span = Loc.dummy)
    ?(order_span = Loc.dummy) ?(limit_span = Loc.dummy) patterns =
  {
    distinct;
    projection;
    patterns;
    filters;
    filter_spans;
    union_branches;
    union_filter_spans;
    union_spans;
    order;
    limit;
    proj_span;
    order_span;
    limit_span;
  }

(* [filter_spans] is best-effort metadata: when a query was synthesized
   rather than parsed the list may be empty, so analyzers use this
   defensive accessor. *)
let filter_span q i = match List.nth_opt q.filter_spans i with Some s -> s | None -> Loc.dummy

let branch_filter_span q b i =
  if b = 0 then filter_span q i
  else
    match List.nth_opt q.union_filter_spans (b - 1) with
    | Some spans -> Option.value ~default:Loc.dummy (List.nth_opt spans i)
    | None -> Loc.dummy

let branch_span q b =
  match List.nth_opt q.union_spans (b - 1) with Some s when b >= 1 -> s | _ -> Loc.dummy

let term_vars = function TVar v -> [ v ] | TConst _ -> []

let pattern_vars p =
  List.sort_uniq compare (term_vars p.subj @ term_vars p.attr @ term_vars p.obj)

let rec expr_vars_acc acc = function
  | EVar v -> v :: acc
  | EConst _ -> acc
  | ECmp (_, a, b) | EAnd (a, b) | EOr (a, b) | EEdist (a, b) | EContains (a, b) | EPrefix (a, b)
    ->
    expr_vars_acc (expr_vars_acc acc a) b
  | ENot a -> expr_vars_acc acc a

let expr_vars e = List.sort_uniq compare (expr_vars_acc [] e)

let query_vars q =
  let branch_vars (ps, fs) = List.concat_map pattern_vars ps @ List.concat_map expr_vars fs in
  List.sort_uniq compare
    (List.concat_map branch_vars ((q.patterns, q.filters) :: q.union_branches))

let pp_term fmt = function
  | TVar v -> Format.fprintf fmt "?%s" v
  | TConst (Value.S s) -> Format.fprintf fmt "'%s'" s
  | TConst v -> Value.pp fmt v

let pp_pattern fmt p =
  Format.fprintf fmt "(%a, %a, %a)" pp_term p.subj pp_term p.attr pp_term p.obj

let string_of_cmpop = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp_expr fmt = function
  | EVar v -> Format.fprintf fmt "?%s" v
  | EConst (Value.S s) -> Format.fprintf fmt "'%s'" s
  | EConst v -> Value.pp fmt v
  | ECmp (op, a, b) -> Format.fprintf fmt "%a %s %a" pp_expr a (string_of_cmpop op) pp_expr b
  | EAnd (a, b) -> Format.fprintf fmt "(%a AND %a)" pp_expr a pp_expr b
  | EOr (a, b) -> Format.fprintf fmt "(%a OR %a)" pp_expr a pp_expr b
  | ENot a -> Format.fprintf fmt "NOT %a" pp_expr a
  | EEdist (a, b) -> Format.fprintf fmt "edist(%a, %a)" pp_expr a pp_expr b
  | EContains (a, b) -> Format.fprintf fmt "contains(%a, %a)" pp_expr a pp_expr b
  | EPrefix (a, b) -> Format.fprintf fmt "prefix(%a, %a)" pp_expr a pp_expr b

let pp_query fmt q =
  Format.fprintf fmt "SELECT %s%s WHERE {"
    (if q.distinct then "DISTINCT " else "")
    (match q.projection with
    | None -> "*"
    | Some vs -> String.concat ", " (List.map (fun v -> "?" ^ v) vs));
  List.iter (fun p -> Format.fprintf fmt " %a" pp_pattern p) q.patterns;
  List.iter (fun f -> Format.fprintf fmt " FILTER %a" pp_expr f) q.filters;
  Format.fprintf fmt " }";
  List.iter
    (fun (ps, fs) ->
      Format.fprintf fmt " UNION {";
      List.iter (fun p -> Format.fprintf fmt " %a" pp_pattern p) ps;
      List.iter (fun f -> Format.fprintf fmt " FILTER %a" pp_expr f) fs;
      Format.fprintf fmt " }")
    q.union_branches;
  (match q.order with
  | Some (OrderBy items) ->
    Format.fprintf fmt " ORDER BY %s"
      (String.concat ", "
         (List.map (fun (v, d) -> "?" ^ v ^ match d with Asc -> " ASC" | Desc -> " DESC") items))
  | Some (Skyline items) ->
    Format.fprintf fmt " ORDER BY SKYLINE OF %s"
      (String.concat ", "
         (List.map (fun (v, g) -> "?" ^ v ^ match g with Min -> " MIN" | Max -> " MAX") items))
  | None -> ());
  match q.limit with Some n -> Format.fprintf fmt " LIMIT %d" n | None -> ()
