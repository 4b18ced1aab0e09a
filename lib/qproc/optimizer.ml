module Ast = Unistore_vql.Ast
module Algebra = Unistore_vql.Algebra
module Value = Unistore_triple.Value
module Keys = Unistore_triple.Keys

let constraints_of var cmap = Option.value ~default:[] (List.assoc_opt var cmap)

(* Merge range constraints into closed bounds (inclusivity handled by the
   residual filter re-check). *)
let range_bounds cs =
  let lo =
    List.filter_map (function Algebra.Clower (v, _) | Algebra.Ceq v -> Some v | _ -> None) cs
    |> function
    | [] -> None
    | l -> Some (List.fold_left (fun a b -> if Value.compare a b >= 0 then a else b) (List.hd l) l)
  in
  let hi =
    List.filter_map (function Algebra.Cupper (v, _) | Algebra.Ceq v -> Some v | _ -> None) cs
    |> function
    | [] -> None
    | l -> Some (List.fold_left (fun a b -> if Value.compare a b <= 0 then a else b) (List.hd l) l)
  in
  (lo, hi)

(* A cached access costs no messages at all: the origin answers it from
   its result cache. Cardinality is kept — join ordering still depends
   on it — and [ABroadcast] is never cached (see {!Qcache.cacheable}).
   The probe must be side-effect free ({!Qcache.cached_access}). *)
let bias ~cached a (e : Cost.estimate) =
  match cached with
  | Some hit when hit a -> { e with Cost.messages = 0.0; latency = 0.0 }
  | _ -> e

let access_candidates env stats ~qgrams ?cached cmap (p : Ast.pattern) =
  let candidates = ref [] in
  let add a = candidates := a :: !candidates in
  (match p.Ast.subj with Ast.TConst (Value.S oid) -> add (Cost.AOid oid) | _ -> ());
  (match (p.Ast.attr, p.Ast.obj) with
  | Ast.TConst (Value.S a), Ast.TConst v -> add (Cost.AAttrValue (a, v))
  | Ast.TConst (Value.S a), Ast.TVar ov ->
    let cs = constraints_of ov cmap in
    let eq = List.find_map (function Algebra.Ceq v -> Some v | _ -> None) cs in
    (match eq with
    | Some v -> add (Cost.AAttrValue (a, v))
    | None ->
      let lo, hi = range_bounds cs in
      if lo <> None || hi <> None then add (Cost.AAttrRange (a, lo, hi));
      List.iter
        (function
          | Algebra.Cedist (pat, d) ->
            if qgrams && Keys.edist_indexable ~pattern:pat ~d then add (Cost.ASim (Some a, pat, d))
          | Algebra.Cprefix pre -> add (Cost.AAttrPrefix (a, pre))
          | Algebra.Ccontains pat ->
            if qgrams && Keys.substring_indexable ~pattern:pat then
              add (Cost.ASubstring (Some a, pat))
          | _ -> ())
        cs;
      add (Cost.AAttrAll a))
  | Ast.TVar _, Ast.TConst v -> add (Cost.AValue v)
  | Ast.TVar _, Ast.TVar ov ->
    List.iter
      (function
        | Algebra.Cedist (pat, d) ->
          if qgrams && Keys.edist_indexable ~pattern:pat ~d then add (Cost.ASim (None, pat, d))
        | Algebra.Ccontains pat ->
          if qgrams && Keys.substring_indexable ~pattern:pat then
            add (Cost.ASubstring (None, pat))
        | _ -> ())
      (constraints_of ov cmap)
  | Ast.TConst _, _ -> ());
  add Cost.ABroadcast;
  !candidates
  |> List.map (fun a -> (a, bias ~cached a (Cost.estimate_access env stats a)))
  |> List.sort (fun (_, e1) (_, e2) -> Float.compare (Cost.objective e1) (Cost.objective e2))

let shares_var bound p = List.exists (fun v -> List.mem v bound) (Ast.pattern_vars p)

(* Can this pattern run as a bind-join once [bound] vars are bound?
   Either its subject is bound (per-binding OID lookups) or its attribute
   is constant and its object is bound (per-binding A#v lookups). *)
let bindjoin_possible bound (p : Ast.pattern) =
  (match p.Ast.subj with Ast.TVar v -> List.mem v bound | Ast.TConst _ -> false)
  ||
  match (p.Ast.attr, p.Ast.obj) with
  | Ast.TConst (Value.S _), Ast.TVar v -> List.mem v bound
  | _ -> false

let join_card card_left card_right = Float.max 1.0 (Float.min card_left card_right)

let choose_next env stats ~qgrams ?cached cmap ~bound ~card_left remaining =
  if remaining = [] then invalid_arg "Optimizer.choose_next: no remaining patterns";
  let connected, disconnected = List.partition (shares_var bound) remaining in
  let pool = if connected <> [] then connected else disconnected in
  (* Evaluate each candidate pattern with its best strategy. *)
  let scored =
    List.map
      (fun p ->
        let bulk =
          match access_candidates env stats ~qgrams ?cached cmap p with
          | (a, e) :: _ -> (a, e)
          | [] -> (Cost.ABroadcast, Cost.estimate_access env stats Cost.ABroadcast)
        in
        let bulk_access, bulk_est = bulk in
        let bind_cost =
          if bindjoin_possible bound p then
            Some
              (Cost.probe_round_cost env ~keys:card_left
                 ~cardinality:(join_card card_left bulk_est.Cost.cardinality))
          else None
        in
        let use_bind =
          match bind_cost with
          | Some b -> Cost.objective b < Cost.objective bulk_est
          | None -> false
        in
        let est = if use_bind then Option.get bind_cost else bulk_est in
        (p, bulk_access, use_bind, est))
      pool
  in
  let best =
    List.fold_left
      (fun acc cand ->
        let _, _, _, e = cand in
        match acc with
        | Some (_, _, _, e0) when Cost.objective e0 <= Cost.objective e -> acc
        | _ -> Some cand)
      None scored
  in
  match best with
  | None -> invalid_arg "Optimizer.choose_next: empty pool"
  | Some (p, access, bindjoin, est) ->
    let rest = List.filter (fun q -> q != p) remaining in
    ( { Physical.pattern = p; access; bindjoin; residual = []; est },
      rest )

(* Attach each filter to the earliest step that binds all its vars. *)
let attach_filters steps filters =
  let rec go done_steps bound remaining_filters = function
    | [] -> (List.rev done_steps, remaining_filters)
    | (s : Physical.step) :: rest ->
      let bound = List.sort_uniq compare (bound @ Ast.pattern_vars s.Physical.pattern) in
      let here, later =
        List.partition
          (fun f -> List.for_all (fun v -> List.mem v bound) (Ast.expr_vars f))
          remaining_filters
      in
      go ({ s with Physical.residual = here } :: done_steps) bound later rest
  in
  go [] [] filters steps

let first_step env stats ~qgrams ?cached cmap patterns =
  if patterns = [] then invalid_arg "Optimizer.first_step: no patterns";
  let scores =
    List.map
      (fun p ->
        match access_candidates env stats ~qgrams ?cached cmap p with
        | (a, e) :: _ -> (p, a, e)
        | [] -> (p, Cost.ABroadcast, Cost.estimate_access env stats Cost.ABroadcast))
      patterns
  in
  let best =
    List.fold_left
      (fun acc cand ->
        let _, _, e = cand in
        match acc with
        | Some (_, _, e0)
          when (e0.Cost.cardinality, Cost.objective e0) <= (e.Cost.cardinality, Cost.objective e)
          ->
          acc
        | _ -> Some cand)
      None scores
  in
  match best with
  | None -> invalid_arg "Optimizer.first_step: empty"
  | Some (p0, a0, e0) ->
    ( { Physical.pattern = p0; access = a0; bindjoin = false; residual = []; est = e0 },
      List.filter (fun p -> p != p0) patterns )

(* A single ordered-and-limited pattern over one attribute can run as an
   early-terminating traversal of that attribute's region (key order =
   value order). Sound only when nothing else can prune rows after the
   budget was spent: no filters, no joins, ascending single-var order. *)
let topn_opportunity (q : Ast.query) =
  match (q.Ast.patterns, q.Ast.filters, q.Ast.union_branches, q.Ast.order, q.Ast.limit) with
  | ( [ { Ast.subj = Ast.TVar _; attr = Ast.TConst (Value.S a); obj = Ast.TVar v; _ } ],
      [],
      [],
      Some (Ast.OrderBy [ (ov, Ast.Asc) ]),
      Some n )
    when String.equal v ov ->
    Some (a, n)
  | _ -> None

let plan env stats ~qgrams ?cached ?(expansions = []) (q : Ast.query) =
  let cmap = Algebra.var_constraints q.Ast.filters in
  let steps =
    let fs, rest0 = first_step env stats ~qgrams ?cached cmap q.Ast.patterns in
    let rec extend acc bound card_left remaining =
      match remaining with
      | [] -> List.rev acc
      | _ ->
        let step, rest = choose_next env stats ~qgrams ?cached cmap ~bound ~card_left remaining in
        let bound = List.sort_uniq compare (bound @ Ast.pattern_vars step.Physical.pattern) in
        extend (step :: acc) bound step.Physical.est.Cost.cardinality rest
    in
    extend [ fs ] (Ast.pattern_vars fs.Physical.pattern) fs.Physical.est.Cost.cardinality rest0
  in
  let steps =
    match (topn_opportunity q, steps) with
    | Some (a, n), [ step ] ->
      let est = Cost.estimate_access env stats (Cost.ATopN (a, n)) in
      if Cost.objective est < Cost.objective step.Physical.est then
        [ { step with Physical.access = Cost.ATopN (a, n); est } ]
      else steps
    | _ -> steps
  in
  let steps, post_filters = attach_filters steps q.Ast.filters in
  let total_est =
    List.fold_left
      (fun acc (s : Physical.step) ->
        {
          Cost.messages = acc.Cost.messages +. s.Physical.est.Cost.messages;
          latency = acc.Cost.latency +. s.Physical.est.Cost.latency;
          cardinality = s.Physical.est.Cost.cardinality;
        })
      { Cost.messages = 0.0; latency = 0.0; cardinality = 0.0 }
      steps
  in
  { (Physical.post_only ~post_filters ~expansions q) with Physical.steps; total_est }
