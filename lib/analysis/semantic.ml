module Ast = Unistore_vql.Ast
module Algebra = Unistore_vql.Algebra
module Parser = Unistore_vql.Parser
module Loc = Unistore_vql.Loc
module Value = Unistore_triple.Value
module Det = Unistore_util.Det
module Strdist = Unistore_util.Strdist
module D = Diagnostic

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

(* Numeric-aware value comparison: I and F unify, otherwise the type-tag
   order of [Value.compare] (which is also the runtime comparison). *)
let cmp_values a b =
  match (Value.to_float a, Value.to_float b) with
  | Some x, Some y -> compare x y
  | _ -> Value.compare a b

let eq_values a b = cmp_values a b = 0

(* Span of a filter list entry for a query, by filter index. *)
let filter_span_of q i = Ast.filter_span q i

(* Union of the spans of all filters (of the main branch) that mention
   [v] — where a per-variable finding points. *)
let spans_mentioning q v =
  List.fold_left
    (fun (i, acc) f ->
      (i + 1, if List.mem v (Ast.expr_vars f) then Loc.union acc (filter_span_of q i) else acc))
    (0, Loc.dummy) q.Ast.filters
  |> snd

(* ------------------------------------------------------------------ *)
(* Unbound / unused variables                                          *)

let check_bound q =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let branches = (q.Ast.patterns, q.Ast.filters) :: q.Ast.union_branches in
  let bound_anywhere = List.concat_map (fun (ps, _) -> List.concat_map Ast.pattern_vars ps) branches in
  if q.Ast.patterns = [] then
    add (D.make ~severity:D.Error ~code:"no-patterns" "query has no triple patterns");
  List.iteri
    (fun b (ps, _) ->
      if ps = [] then
        add
          (D.make ~span:(Ast.branch_span q (b + 1)) ~severity:D.Error ~code:"no-patterns"
             "UNION branch has no triple patterns"))
    q.Ast.union_branches;
  (match q.Ast.projection with
  | Some [] -> add (D.make ~span:q.Ast.proj_span ~severity:D.Error ~code:"empty-projection" "empty projection")
  | Some vs ->
    List.iter
      (fun v ->
        if not (List.mem v bound_anywhere) then
          add
            (D.makef ~span:q.Ast.proj_span ~severity:D.Error ~code:"unbound-var"
               "projected variable ?%s is not bound by any pattern" v))
      vs
  | None -> ());
  List.iteri
    (fun bi (ps, fs) ->
      let branch_bound = List.concat_map Ast.pattern_vars ps in
      List.iteri
        (fun fi f ->
          let span = Ast.branch_filter_span q bi fi in
          List.iter
            (fun v ->
              if not (List.mem v branch_bound) then
                add
                  (D.makef ~span ~severity:D.Error ~code:"unbound-var"
                     "filter variable ?%s is not bound within its branch" v))
            (Ast.expr_vars f))
        fs)
    branches;
  let check_order_vars vs =
    List.iter
      (fun v ->
        if not (List.mem v bound_anywhere) then
          add
            (D.makef ~span:q.Ast.order_span ~severity:D.Error ~code:"unbound-var"
               "ordering variable ?%s is not bound by any pattern" v))
      vs
  in
  (match q.Ast.order with
  | Some (Ast.OrderBy items) -> check_order_vars (List.map fst items)
  | Some (Ast.Skyline items) -> check_order_vars (List.map fst items)
  | None -> ());
  List.rev !ds

(* A variable bound by exactly one pattern, in object position, and used
   nowhere else is dead weight: the pattern still constrains results
   (the attribute must exist), which the warning points out. Only fires
   with an explicit projection — [SELECT *] uses everything. *)
let check_unused q =
  match q.Ast.projection with
  | None -> []
  | Some projected ->
    let used_outside =
      projected
      @ List.concat_map Ast.expr_vars q.Ast.filters
      @ List.concat_map (fun (_, fs) -> List.concat_map Ast.expr_vars fs) q.Ast.union_branches
      @ (match q.Ast.order with
        | Some (Ast.OrderBy items) -> List.map fst items
        | Some (Ast.Skyline items) -> List.map fst items
        | None -> [])
    in
    let occurrences v =
      let term_count = function Ast.TVar x when String.equal x v -> 1 | _ -> 0 in
      List.fold_left
        (fun acc (p : Ast.pattern) ->
          acc + term_count p.Ast.subj + term_count p.Ast.attr + term_count p.Ast.obj)
        0
        (q.Ast.patterns @ List.concat_map fst q.Ast.union_branches)
    in
    List.filter_map
      (fun (p : Ast.pattern) ->
        match p.Ast.obj with
        | Ast.TVar v when (not (List.mem v used_outside)) && occurrences v = 1 ->
          Some
            (D.makef ~span:p.Ast.span ~severity:D.Warning ~code:"unused-var"
               ~hint:"the pattern still requires the attribute to exist; project the variable or drop it if unintended"
               "variable ?%s is bound here but never used" v)
        | _ -> None)
      q.Ast.patterns

(* ------------------------------------------------------------------ *)
(* Type inference against the catalog                                  *)

type evidence = {
  possible : Catalog.vtype list;  (** candidate types from this observation *)
  source : string;
  espan : Loc.t;
}

let all_types = [ Catalog.Str; Catalog.Num; Catalog.Bool ]

let pp_types fmt ts =
  Format.pp_print_list
    ~pp_sep:(fun f () -> Format.pp_print_string f " or ")
    Catalog.pp_vtype fmt ts

(* Type evidence of one branch: its patterns and its filters, the
   [i]-th filter at [span_of i]. UNION branches bind their variables
   independently, so evidence is never pooled across branches. *)
let gather_evidence catalog (ps, fs) ~span_of =
  let ev : (string, evidence list) Hashtbl.t = Hashtbl.create 16 in
  let unknown = ref [] in
  let record v e =
    Hashtbl.replace ev v (e :: Option.value ~default:[] (Hashtbl.find_opt ev v))
  in
  (* Pattern objects: the attribute's observed types constrain the
     object variable. *)
  List.iter
    (fun (p : Ast.pattern) ->
      match (p.Ast.attr, p.Ast.obj) with
      | Ast.TConst (Value.S a), obj -> (
        match Catalog.find catalog a with
        | None -> unknown := (a, p.Ast.span) :: !unknown
        | Some info -> (
          match obj with
          | Ast.TVar v when info.Catalog.types <> [] ->
            record v
              {
                possible = info.Catalog.types;
                source = Printf.sprintf "attribute '%s'" a;
                espan = p.Ast.span;
              }
          | _ -> ()))
      | _ -> ())
    ps;
  (* Filters: comparisons with constants and string functions. *)
  let rec walk span e =
    match e with
    | Ast.EAnd (a, b) | Ast.EOr (a, b) ->
      walk span a;
      walk span b
    | Ast.ENot a -> walk span a
    | Ast.ECmp (_, Ast.EVar v, Ast.EConst c) | Ast.ECmp (_, Ast.EConst c, Ast.EVar v) ->
      record v
        {
          possible = [ Catalog.vtype_of_value c ];
          source = Printf.sprintf "comparison with %s" (Value.to_display c);
          espan = span;
        }
    | Ast.ECmp (_, a, b) ->
      walk span a;
      walk span b
    | Ast.EEdist (a, b) | Ast.EContains (a, b) | Ast.EPrefix (a, b) ->
      let fname = match e with Ast.EEdist _ -> "edist" | Ast.EContains _ -> "contains" | _ -> "prefix" in
      List.iter
        (function
          | Ast.EVar v ->
            record v
              { possible = [ Catalog.Str ]; source = fname ^ "() argument"; espan = span }
          | _ -> ())
        [ a; b ]
    | Ast.EVar _ | Ast.EConst _ -> ()
  in
  List.iteri (fun i f -> walk (span_of i) f) fs;
  (ev, List.rev !unknown)

let clashes ev =
  Det.sorted_bindings ~cmp:String.compare ev
  |> List.filter_map (fun (v, evs) ->
         let inter =
           List.fold_left
             (fun acc e -> List.filter (fun t -> List.mem t e.possible) acc)
             all_types evs
         in
         if inter = [] then begin
           let evs = List.rev evs in
           let span = List.fold_left (fun s e -> Loc.union s e.espan) Loc.dummy evs in
           let detail =
             String.concat "; "
               (List.map
                  (fun e -> Format.asprintf "%s implies %a" e.source pp_types e.possible)
                  evs)
           in
           Some
             (D.makef ~span ~severity:D.Error ~code:"type-clash"
                "variable ?%s has contradictory types: %s" v detail)
         end
         else None)

let check_types catalog q =
  if Catalog.is_empty catalog then []
  else begin
    let per_branch =
      gather_evidence catalog (q.Ast.patterns, q.Ast.filters) ~span_of:(filter_span_of q)
      :: List.mapi
           (fun bi branch ->
             gather_evidence catalog branch ~span_of:(Ast.branch_filter_span q (bi + 1)))
           q.Ast.union_branches
    in
    let unknown_ds =
      (* One warning per distinct unknown attribute. *)
      List.concat_map snd per_branch
      |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (a, span) ->
             D.makef ~span ~severity:D.Warning ~code:"unknown-attr"
               ~hint:"the query can only match data inserted after statistics were collected"
               "attribute '%s' does not occur in the data" a)
    in
    unknown_ds @ List.concat_map (fun (ev, _) -> clashes ev) per_branch
  end

(* ------------------------------------------------------------------ *)
(* Unsatisfiable filter predicates                                     *)

let check_unsat q =
  let ds = ref [] in
  let unsat v span fmt =
    Format.kasprintf
      (fun msg ->
        ds :=
          D.makef ~span ~severity:D.Error ~code:"unsat-filter"
            "filter on ?%s is unsatisfiable: %s" v msg
          :: !ds)
      fmt
  in
  List.iter
    (fun (v, cs) ->
      let span = spans_mentioning q v in
      let eqs = List.filter_map (function Algebra.Ceq c -> Some c | _ -> None) cs in
      let lowers = List.filter_map (function Algebra.Clower (c, i) -> Some (c, i) | _ -> None) cs in
      let uppers = List.filter_map (function Algebra.Cupper (c, i) -> Some (c, i) | _ -> None) cs in
      (* Conflicting equalities. *)
      (match eqs with
      | c1 :: rest -> (
        match List.find_opt (fun c2 -> not (eq_values c1 c2)) rest with
        | Some c2 ->
          unsat v span "?%s = %s contradicts ?%s = %s" v (Value.to_display c1) v
            (Value.to_display c2)
        | None -> ())
      | [] -> ());
      (* Tightest bounds; empty interval = contradiction. *)
      let best cmp l =
        List.fold_left
          (fun acc (c, incl) ->
            match acc with
            | None -> Some (c, incl)
            | Some (c', incl') ->
              let d = cmp_values c c' in
              if cmp d 0 || (d = 0 && incl' && not incl) then Some (c, incl) else Some (c', incl'))
          None l
      in
      let lo = best (fun d z -> d > z) lowers in
      let hi = best (fun d z -> d < z) uppers in
      (match (lo, hi) with
      | Some (l, li), Some (h, hi_incl) ->
        let d = cmp_values l h in
        if d > 0 || (d = 0 && not (li && hi_incl)) then
          unsat v span "contradictory range bounds %s%s and %s%s"
            (if li then ">= " else "> ")
            (Value.to_display l)
            (if hi_incl then "<= " else "< ")
            (Value.to_display h)
      | _ -> ());
      (* Equality vs bounds and string predicates. *)
      List.iter
        (fun c ->
          (match lo with
          | Some (l, li) ->
            let d = cmp_values c l in
            if d < 0 || (d = 0 && not li) then
              unsat v span "?%s = %s violates the lower bound %s" v (Value.to_display c)
                (Value.to_display l)
          | None -> ());
          (match hi with
          | Some (h, hi_incl) ->
            let d = cmp_values c h in
            if d > 0 || (d = 0 && not hi_incl) then
              unsat v span "?%s = %s violates the upper bound %s" v (Value.to_display c)
                (Value.to_display h)
          | None -> ());
          List.iter
            (function
              | Algebra.Cprefix p -> (
                match c with
                | Value.S s when not (String.length s >= String.length p && String.sub s 0 (String.length p) = p) ->
                  unsat v span "?%s = '%s' does not have prefix '%s'" v s p
                | _ -> ())
              | Algebra.Ccontains p -> (
                match c with
                | Value.S s when not (Strdist.contains_sub s p) ->
                  unsat v span "?%s = '%s' does not contain '%s'" v s p
                | _ -> ())
              | _ -> ())
            cs)
        eqs;
      (* Impossible edit-distance thresholds: [edist < 0] etc. *)
      List.iter
        (function
          | Algebra.Cedist (p, d) when d < 0 ->
            unsat v span "edit distance to '%s' can never be below zero (threshold %d)" p d
          | _ -> ())
        cs)
    (Algebra.var_constraints q.Ast.filters);
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Join-graph connectivity                                             *)

(* Union-find over variables; each pattern joins its variables into one
   component. Patterns without variables are existence tests and exempt.
   Filters referencing several variables merge their components too
   (the engine applies them after the join, so they do connect). *)
let check_connectivity (ps : Ast.pattern list) (fs : Ast.expr list) =
  let parent : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let rec find v =
    match Hashtbl.find_opt parent v with
    | None ->
      Hashtbl.replace parent v v;
      v
    | Some p when p = v -> v
    | Some p ->
      let r = find p in
      Hashtbl.replace parent v r;
      r
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  let merge_all = function [] -> () | v :: rest -> List.iter (union v) rest in
  List.iter (fun p -> merge_all (Ast.pattern_vars p)) ps;
  List.iter (fun f -> merge_all (Ast.expr_vars f)) fs;
  let with_vars = List.filter (fun p -> Ast.pattern_vars p <> []) ps in
  let roots =
    List.sort_uniq compare
      (List.map (fun p -> find (List.hd (Ast.pattern_vars p))) with_vars)
  in
  if List.length roots <= 1 then []
  else begin
    (* Point at the first pattern of each extra component. *)
    let seen = Hashtbl.create 8 in
    let extras =
      List.filter
        (fun p ->
          let r = find (List.hd (Ast.pattern_vars p)) in
          if Hashtbl.mem seen r then false
          else begin
            Hashtbl.replace seen r ();
            Hashtbl.length seen > 1
          end)
        with_vars
    in
    List.map
      (fun (p : Ast.pattern) ->
        D.makef ~span:p.Ast.span ~severity:D.Warning ~code:"cartesian-product"
          ~hint:"join the pattern through a shared variable, or accept the cross product if intended"
          "pattern %a shares no variable with the preceding patterns (Cartesian product of %d disconnected groups)"
          Ast.pp_pattern p (List.length roots))
      extras
  end

(* ------------------------------------------------------------------ *)
(* LIMIT / ORDER BY interplay                                          *)

let check_order_limit q =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  (match q.Ast.limit with
  | Some n when n <= 0 ->
    add
      (D.makef ~span:q.Ast.limit_span ~severity:D.Error ~code:"bad-limit"
         "LIMIT must be positive (got %d)" n)
  | Some _ when q.Ast.order = None ->
    add
      (D.make ~span:q.Ast.limit_span ~severity:D.Info ~code:"nondeterministic-limit"
         "LIMIT without ORDER BY returns an arbitrary subset")
  | _ -> ());
  let check_dims kind vs =
    if vs = [] then
      add
        (D.makef ~span:q.Ast.order_span ~severity:D.Error ~code:"empty-order" "empty %s clause"
           kind);
    let rec dups seen = function
      | [] -> ()
      | v :: rest ->
        if List.mem v seen then
          add
            (D.makef ~span:q.Ast.order_span ~severity:D.Warning ~code:"duplicate-dim"
               "?%s appears more than once in the %s clause" v kind);
        dups (v :: seen) rest
    in
    dups [] vs
  in
  (match q.Ast.order with
  | Some (Ast.OrderBy items) -> check_dims "ordering" (List.map fst items)
  | Some (Ast.Skyline items) -> check_dims "skyline" (List.map fst items)
  | None -> ());
  List.rev !ds

(* ------------------------------------------------------------------ *)

let analyze ?(catalog = Catalog.empty) q =
  Diagnostic.sort
    (check_bound q @ check_unused q @ check_types catalog q @ check_unsat q
    @ check_connectivity q.Ast.patterns q.Ast.filters
    @ List.concat_map (fun (ps, fs) -> check_connectivity ps fs) q.Ast.union_branches
    @ check_order_limit q)

let analyze_string ?catalog src =
  match Parser.parse src with
  | Error e -> Error e
  | Ok q -> Ok (q, analyze ?catalog q)
