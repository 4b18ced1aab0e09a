(* Reference answers for the query workload, ported from the brute-force
   [ref_eval] of test/test_core.ml: every triple pattern is matched
   against the in-memory dataset, the matches are joined, filtered,
   ordered, projected, deduplicated and cut exactly as VQL specifies.
   Nothing here touches the overlay, the planner or the executor; only
   the binding primitives and the ordering functions are shared.

   The port indexes triples by attribute and hash-joins on the shared
   variables instead of nested loops, so a benchmark-sized dataset
   evaluates in milliseconds. The join order and the row order it
   produces are those of the original. *)

module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple
module Ast = Unistore_vql.Ast
module Algebra = Unistore_vql.Algebra
module Binding = Unistore_qproc.Binding
module Ranking = Unistore_qproc.Ranking

type t = { all : Triple.t list; by_attr : (string, Triple.t list) Hashtbl.t }

let create triples =
  let by_attr = Hashtbl.create 32 in
  List.iter
    (fun (tr : Triple.t) ->
      let a = tr.Triple.attr in
      Hashtbl.replace by_attr a (tr :: Option.value ~default:[] (Hashtbl.find_opt by_attr a)))
    (List.rev triples);
  { all = triples; by_attr }

let candidates t (p : Ast.pattern) =
  match p.Ast.attr with
  | Ast.TConst (Value.S a) -> Option.value ~default:[] (Hashtbl.find_opt t.by_attr a)
  | Ast.TConst _ -> []
  | Ast.TVar _ -> t.all

let join (p : Ast.pattern) rows matches =
  match rows with
  | [] -> []
  | r0 :: _ ->
    let bound = Binding.vars r0 in
    let shared =
      List.sort_uniq String.compare (List.filter (fun v -> List.mem v bound) (Ast.pattern_vars p))
    in
    let index = Hashtbl.create 64 in
    List.iter
      (fun m ->
        match Binding.join_key shared m with Some k -> Hashtbl.add index k m | None -> ())
      matches;
    List.concat_map
      (fun r ->
        match Binding.join_key shared r with
        | Some k -> List.filter_map (Binding.compatible r) (List.rev (Hashtbl.find_all index k))
        | None -> [])
      rows

let eval_branch t (patterns, filters) =
  let joined =
    List.fold_left
      (fun rows p -> join p rows (List.filter_map (Binding.match_triple p) (candidates t p)))
      [ Binding.empty ] patterns
  in
  List.fold_left
    (fun rows f -> List.filter (fun b -> Algebra.eval_pred (Binding.lookup b) f) rows)
    joined filters

let eval t (q : Ast.query) =
  let filtered =
    List.concat_map (eval_branch t) ((q.Ast.patterns, q.Ast.filters) :: q.Ast.union_branches)
  in
  let ordered =
    match q.Ast.order with
    | Some (Ast.OrderBy items) -> Ranking.order_by items filtered
    | Some (Ast.Skyline items) -> Ranking.skyline items filtered
    | None -> filtered
  in
  let projected =
    match q.Ast.projection with Some vs -> List.map (Binding.project vs) ordered | None -> ordered
  in
  let distinct =
    if q.Ast.distinct then begin
      let seen = Hashtbl.create 32 in
      List.filter
        (fun b ->
          let fp = Binding.fingerprint b in
          if Hashtbl.mem seen fp then false
          else begin
            Hashtbl.replace seen fp ();
            true
          end)
        projected
    end
    else projected
  in
  match q.Ast.limit with Some n -> List.filteri (fun i _ -> i < n) distinct | None -> distinct

let fingerprints rows = List.sort String.compare (List.map Binding.fingerprint rows)

(* The ORDER BY key of each row, in row order. *)
let sort_keys (q : Ast.query) rows =
  match q.Ast.order with
  | Some (Ast.OrderBy items) ->
    List.map
      (fun b ->
        String.concat "\x00"
          (List.map
             (fun (v, _) ->
               match Binding.find b v with Some x -> Value.encode x | None -> "")
             items))
      rows
  | Some (Ast.Skyline _) | None -> []

(* [matches t q rows] holds when [rows] is a correct answer to [q]: the
   same multiset of rows as the reference without LIMIT; with LIMIT, as
   many rows as the reference keeps, each one a row of the unlimited
   answer, in the reference's sort-key sequence (ties at the cut-off may
   pick different rows). *)
let matches t (q : Ast.query) rows =
  match q.Ast.limit with
  | None -> List.equal String.equal (fingerprints (eval t q)) (fingerprints rows)
  | Some _ ->
    let expected = eval t q in
    let valid = Hashtbl.create 64 in
    List.iter
      (fun b -> Hashtbl.replace valid (Binding.fingerprint b) ())
      (eval t { q with Ast.limit = None });
    List.length rows = List.length expected
    && List.for_all (fun b -> Hashtbl.mem valid (Binding.fingerprint b)) rows
    && List.equal String.equal (sort_keys q expected) (sort_keys q rows)
