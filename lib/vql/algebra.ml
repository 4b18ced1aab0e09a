module Value = Unistore_triple.Value
module Strdist = Unistore_util.Strdist

type t =
  | Scan of Ast.pattern
  | Select of Ast.expr * t
  | Project of string list * t
  | Distinct of t
  | Join of t * t
  | Union of t * t
  | OrderBy of (string * Ast.dir) list * t
  | Skyline of (string * Ast.goal) list * t
  | Limit of int * t

let of_query (q : Ast.query) =
  let branch (patterns, filters) =
    let scans = List.map (fun p -> Scan p) patterns in
    let joined =
      match scans with
      | [] -> invalid_arg "Algebra.of_query: no patterns"
      | first :: rest -> List.fold_left (fun acc s -> Join (acc, s)) first rest
    in
    List.fold_left (fun acc f -> Select (f, acc)) joined filters
  in
  let filtered =
    List.fold_left
      (fun acc b -> Union (acc, branch b))
      (branch (q.Ast.patterns, q.Ast.filters))
      q.Ast.union_branches
  in
  let ordered =
    match q.Ast.order with
    | Some (Ast.OrderBy items) -> OrderBy (items, filtered)
    | Some (Ast.Skyline items) -> Skyline (items, filtered)
    | None -> filtered
  in
  let projected =
    match q.Ast.projection with Some vs -> Project (vs, ordered) | None -> ordered
  in
  let distinct = if q.Ast.distinct then Distinct projected else projected in
  match q.Ast.limit with Some n -> Limit (n, distinct) | None -> distinct

let rec vars = function
  | Scan p -> Ast.pattern_vars p
  | Select (_, t) | Distinct t | OrderBy (_, t) | Skyline (_, t) | Limit (_, t) -> vars t
  | Project (vs, _) -> vs
  | Join (a, b) | Union (a, b) -> List.sort_uniq compare (vars a @ vars b)

let rec pp fmt = function
  | Scan p -> Format.fprintf fmt "Scan%a" Ast.pp_pattern p
  | Select (e, t) -> Format.fprintf fmt "@[<v 2>Select[%a]@,%a@]" Ast.pp_expr e pp t
  | Project (vs, t) ->
    Format.fprintf fmt "@[<v 2>Project[%s]@,%a@]"
      (String.concat "," (List.map (fun v -> "?" ^ v) vs))
      pp t
  | Distinct t -> Format.fprintf fmt "@[<v 2>Distinct@,%a@]" pp t
  | Join (a, b) -> Format.fprintf fmt "@[<v 2>Join@,%a@,%a@]" pp a pp b
  | Union (a, b) -> Format.fprintf fmt "@[<v 2>Union@,%a@,%a@]" pp a pp b
  | OrderBy (items, t) ->
    Format.fprintf fmt "@[<v 2>OrderBy[%s]@,%a@]"
      (String.concat ","
         (List.map (fun (v, d) -> "?" ^ v ^ match d with Ast.Asc -> "+" | Ast.Desc -> "-") items))
      pp t
  | Skyline (items, t) ->
    Format.fprintf fmt "@[<v 2>Skyline[%s]@,%a@]"
      (String.concat ","
         (List.map (fun (v, g) -> "?" ^ v ^ match g with Ast.Min -> " MIN" | Ast.Max -> " MAX") items))
      pp t
  | Limit (n, t) -> Format.fprintf fmt "@[<v 2>Limit[%d]@,%a@]" n pp t

(* ------------------------------------------------------------------ *)
(* Filter analysis                                                     *)

type constraint_ =
  | Ceq of Value.t
  | Clower of Value.t * bool
  | Cupper of Value.t * bool
  | Cedist of string * int
  | Cprefix of string
  | Ccontains of string

let pp_constraint fmt = function
  | Ceq v -> Format.fprintf fmt "= %a" Value.pp v
  | Clower (v, true) -> Format.fprintf fmt ">= %a" Value.pp v
  | Clower (v, false) -> Format.fprintf fmt "> %a" Value.pp v
  | Cupper (v, true) -> Format.fprintf fmt "<= %a" Value.pp v
  | Cupper (v, false) -> Format.fprintf fmt "< %a" Value.pp v
  | Cedist (p, d) -> Format.fprintf fmt "edist(·,'%s') <= %d" p d
  | Cprefix p -> Format.fprintf fmt "prefix(·,'%s')" p
  | Ccontains p -> Format.fprintf fmt "contains(·,'%s')" p

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
    | Some (Value.S x), Some (Value.S y) ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        if nn = 0 then true
        else begin
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        end
      in
      Some (Value.B (contains x y))
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
