module Ast = Unistore_vql.Ast
module Value = Unistore_triple.Value
module Topk = Unistore_util.Topk

let compare_opt_values a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> 1 (* unbound last *)
  | Some _, None -> -1
  | Some x, Some y -> (
    match (Value.to_float x, Value.to_float y) with
    | Some fx, Some fy -> Float.compare fx fy
    | _ -> Value.compare x y)

(* Goal and order variables are resolved to slots once per call
   ({!Binding.getter}), not once per comparison. *)
let order_cmp items =
  let items = List.map (fun (v, dir) -> (Binding.getter v, dir)) items in
  fun a b ->
    let rec go = function
      | [] -> 0
      | (get, dir) :: rest ->
        let c = compare_opt_values (get a) (get b) in
        let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
        if c <> 0 then c else go rest
    in
    go items

let order_by items rows = List.stable_sort (order_cmp items) rows

(* ORDER BY + LIMIT fused through a bounded heap: O(R log n) instead of
   the full O(R log R) sort, identical rows (the heap breaks ties by
   arrival order, i.e. stable-sort semantics). *)
let top_n n items rows =
  if n <= 0 then []
  else Topk.smallest ~cmp:(order_cmp items) n rows

let dominates goals =
  let goals = List.map (fun (v, goal) -> (Binding.getter v, goal)) goals in
  fun a b ->
    let strictly_better = ref false in
    let ok =
      List.for_all
        (fun (get, goal) ->
          match (get a, get b) with
          | Some xa, Some xb -> (
            match (Value.to_float xa, Value.to_float xb) with
            | Some fa, Some fb ->
              let better, worse =
                match goal with Ast.Min -> (fa < fb, fa > fb) | Ast.Max -> (fa > fb, fa < fb)
              in
              if better then strictly_better := true;
              not worse
            | _ -> false)
          | _ -> false)
        goals
    in
    ok && !strictly_better

(* Reference block-nested-loop skyline: keep a window of non-dominated
   rows, checking dominance both ways. Kept as the equivalence oracle for
   the presorted implementation below. *)
let skyline_bnl goals rows =
  let dominates = dominates goals in
  let window = ref [] in
  List.iter
    (fun row ->
      let dominated = List.exists (fun w -> dominates w row) !window in
      if not dominated then
        window := row :: List.filter (fun w -> not (dominates row w)) !window)
    rows;
  List.rev !window

(* A monotone score compatible with dominance: the sum of goal
   dimensions, oriented so smaller is better. If [a] dominates [b] then
   every oriented dimension of [a] is <= [b]'s with one strictly
   smaller, hence [score a < score b] strictly. *)
let monotone_score goals =
  let goals = List.map (fun (v, goal) -> (Binding.getter v, goal)) goals in
  fun row ->
    let rec go acc = function
      | [] -> Some acc
      | (get, goal) :: rest -> (
        match Option.bind (get row) Value.to_float with
        | Some f -> go (acc +. match goal with Ast.Min -> f | Ast.Max -> -.f) rest
        | None -> None)
    in
    go 0.0 goals

(* Presorted skyline: rows are visited in ascending monotone-score order,
   so a row can never dominate an earlier one — the window only grows and
   each row needs a single dominated-by-window check instead of the
   two-way scan-and-filter of the reference BNL. Rows with a missing or
   non-numeric goal dimension neither dominate nor get dominated
   ({!dominates}); they bypass the window entirely. Output is in input
   order, exactly matching {!skyline_bnl}. *)
let skyline goals rows =
  let score = monotone_score goals and dominates = dominates goals in
  let scored, incomparable =
    List.partition_map
      (fun (i, row) ->
        match score row with
        | Some s -> Left (s, i, row)
        | None -> Right (i, row))
      (List.mapi (fun i row -> (i, row)) rows)
  in
  let sorted =
    List.sort
      (fun (sa, ia, _) (sb, ib, _) ->
        let c = Float.compare sa sb in
        if c <> 0 then c else Int.compare ia ib)
      scored
  in
  let window = ref [] in
  List.iter
    (fun (_, i, row) ->
      if not (List.exists (fun (_, w) -> dominates w row) !window) then
        window := (i, row) :: !window)
    sorted;
  List.rev_append !window incomparable
  |> List.sort (fun (ia, _) (ib, _) -> Int.compare ia ib)
  |> List.map snd
