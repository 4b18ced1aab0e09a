module Value = Unistore_triple.Value
module Strdist = Unistore_util.Strdist

(* ------------------------------------------------------------------ *)
(* Filter analysis                                                     *)

type constraint_ =
  | Ceq of Value.t
  | Clower of Value.t * bool
  | Cupper of Value.t * bool
  | Cedist of string * int
  | Cprefix of string
  | Ccontains of string

let rec conjuncts = function
  | Ast.EAnd (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let flip = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | (Ast.Eq | Ast.Neq) as op -> op

let constraint_of_conjunct e =
  let of_cmp op v c =
    match op with
    | Ast.Eq -> Some (v, Ceq c)
    | Ast.Lt -> Some (v, Cupper (c, false))
    | Ast.Le -> Some (v, Cupper (c, true))
    | Ast.Gt -> Some (v, Clower (c, false))
    | Ast.Ge -> Some (v, Clower (c, true))
    | Ast.Neq -> None
  in
  match e with
  | Ast.ECmp (op, EVar v, EConst c) -> of_cmp op v c
  | Ast.ECmp (op, EConst c, EVar v) -> of_cmp (flip op) v c
  | Ast.ECmp (op, EEdist (EVar v, EConst (Value.S p)), EConst (Value.I d))
  | Ast.ECmp (op, EEdist (EConst (Value.S p), EVar v), EConst (Value.I d)) -> (
    match op with
    | Ast.Lt -> Some (v, Cedist (p, d - 1))
    | Ast.Le -> Some (v, Cedist (p, d))
    | Ast.Eq -> Some (v, Cedist (p, d))
    | Ast.Neq | Ast.Gt | Ast.Ge -> None)
  | Ast.EPrefix (EVar v, EConst (Value.S p)) -> Some (v, Cprefix p)
  | Ast.EContains (EVar v, EConst (Value.S p)) -> Some (v, Ccontains p)
  | _ -> None

let var_constraints filters =
  let all = List.concat_map conjuncts filters in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match constraint_of_conjunct e with
      | Some (v, c) ->
        Hashtbl.replace tbl v (c :: Option.value ~default:[] (Hashtbl.find_opt tbl v))
      | None -> ())
    all;
  Hashtbl.fold (fun v cs acc -> (v, List.rev cs) :: acc) tbl [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

let as_number = Value.to_float

let compare_values a b =
  (* Numeric types unify; otherwise fall back to Value.compare within a
     type. Cross-type non-numeric comparisons are errors. *)
  match (as_number a, as_number b) with
  | Some x, Some y -> Some (Float.compare x y)
  | _ -> (
    match (a, b) with
    | Value.S x, Value.S y -> Some (String.compare x y)
    | Value.B x, Value.B y -> Some (Bool.compare x y)
    | _ -> None)

let eval_cmp (op : Ast.cmpop) va vb =
  match (va, vb) with
  | Some va, Some vb -> (
    match compare_values va vb with
    | Some c ->
      let r =
        match op with
        | Eq -> c = 0
        | Neq -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
      in
      Some (Value.B r)
    | None -> None)
  | _ -> None

let edist_value va vb =
  match (va, vb) with
  | Some (Value.S x), Some (Value.S y) -> Some (Value.I (Strdist.levenshtein x y))
  | _ -> None

let rec eval_expr lookup (e : Ast.expr) =
  match e with
  | EVar v -> lookup v
  | EConst c -> Some c
  | ECmp (((Lt | Le | Gt | Ge) as op), EEdist (x, y), d) ->
    eval_edist_cmp lookup op x y (eval_expr lookup d)
  | ECmp (((Lt | Le | Gt | Ge) as op), d, EEdist (x, y)) ->
    eval_edist_cmp lookup (flip op) x y (eval_expr lookup d)
  | ECmp (op, a, b) -> eval_cmp op (eval_expr lookup a) (eval_expr lookup b)
  | EAnd (a, b) -> (
    match (eval_expr lookup a, eval_expr lookup b) with
    | Some (Value.B x), Some (Value.B y) -> Some (Value.B (x && y))
    | _ -> None)
  | EOr (a, b) -> (
    (* SPARQL-ish: true OR error = true. *)
    match (eval_expr lookup a, eval_expr lookup b) with
    | Some (Value.B true), _ | _, Some (Value.B true) -> Some (Value.B true)
    | Some (Value.B x), Some (Value.B y) -> Some (Value.B (x || y))
    | _ -> None)
  | ENot a -> (
    match eval_expr lookup a with Some (Value.B x) -> Some (Value.B (not x)) | _ -> None)
  | EEdist (a, b) -> edist_value (eval_expr lookup a) (eval_expr lookup b)
  | EContains (a, b) -> (
    match (eval_expr lookup a, eval_expr lookup b) with
    | Some (Value.S x), Some (Value.S y) -> Some (Value.B (Strdist.contains_sub x y))
    | _ -> None)
  | EPrefix (a, b) -> (
    match (eval_expr lookup a, eval_expr lookup b) with
    | Some (Value.S x), Some (Value.S y) ->
      Some
        (Value.B (String.length x >= String.length y && String.sub x 0 (String.length y) = y))
    | _ -> None)

(* [edist(x,y) op d] against an int bound: the banded DP decides it and
   stops as soon as the distance exceeds the bound, instead of computing
   the full distance first. Anything else compares the full distance. *)
and eval_edist_cmp lookup op x y d =
  let vx = eval_expr lookup x and vy = eval_expr lookup y in
  match (vx, vy, d) with
  | Some (Value.S a), Some (Value.S b), Some (Value.I d) ->
    let within bound = Strdist.within_distance a b bound in
    Some
      (Value.B
         (match op with
         | Ast.Le -> within d
         | Ast.Lt -> d > 0 && within (d - 1)
         | Ast.Gt -> not (within d)
         | Ast.Ge -> not (d > 0 && within (d - 1))
         | Ast.Eq | Ast.Neq -> invalid_arg "Algebra.eval_edist_cmp"))
  | _ -> eval_cmp op (edist_value vx vy) d

let eval_pred lookup e = match eval_expr lookup e with Some (Value.B b) -> b | _ -> false
