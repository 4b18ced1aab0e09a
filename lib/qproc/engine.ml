module Ast = Unistore_vql.Ast
module Parser = Unistore_vql.Parser
module Value = Unistore_triple.Value
module Tstore = Unistore_triple.Tstore
module Dht = Unistore_triple.Dht

type strategy = Centralized | Mutant

let pp_strategy fmt = function
  | Centralized -> Format.pp_print_string fmt "centralized"
  | Mutant -> Format.pp_print_string fmt "mutant"

type report = {
  columns : string list;
  rows : Binding.t list;
  messages : int;
  latency : float;
  complete : bool;
  completeness : float;
  plan : Physical.t;
  strategy : strategy;
  traces : Exec.step_trace list;
  bytes_shipped : int;
}

let columns_of (q : Ast.query) =
  match q.Ast.projection with Some vs -> vs | None -> Ast.query_vars q

let pp_table fmt r =
  let cell row col =
    match Binding.find row col with Some v -> Value.to_display v | None -> ""
  in
  let widths =
    List.map
      (fun col ->
        List.fold_left
          (fun w row -> max w (String.length (cell row col)))
          (String.length col + 1) r.rows)
      r.columns
  in
  let hline () =
    Format.fprintf fmt "+";
    List.iter (fun w -> Format.fprintf fmt "%s+" (String.make (w + 2) '-')) widths;
    Format.fprintf fmt "@,"
  in
  Format.fprintf fmt "@[<v>";
  hline ();
  Format.fprintf fmt "|";
  List.iter2 (fun col w -> Format.fprintf fmt " %-*s |" w ("?" ^ col)) r.columns widths;
  Format.fprintf fmt "@,";
  hline ();
  List.iter
    (fun row ->
      Format.fprintf fmt "|";
      List.iter2 (fun col w -> Format.fprintf fmt " %-*s |" w (cell row col)) r.columns widths;
      Format.fprintf fmt "@,")
    r.rows;
  hline ();
  Format.fprintf fmt "%d row(s), %d msgs, %.0f ms simulated, %s@]" (List.length r.rows)
    r.messages r.latency
    (if r.complete then "complete"
     else Printf.sprintf "PARTIAL (%.0f%% coverage)" (100.0 *. r.completeness))

let const_attrs (q : Ast.query) =
  let of_patterns ps =
    List.filter_map
      (fun (p : Ast.pattern) ->
        match p.Ast.attr with Ast.TConst (Value.S a) -> Some a | _ -> None)
      ps
  in
  of_patterns q.Ast.patterns
  @ List.concat_map (fun (ps, _) -> of_patterns ps) q.Ast.union_branches
  |> List.sort_uniq compare

(* A UNION branch runs as a stand-alone sub-query: its own patterns and
   filters, no post-processing (that happens once, over the combined
   rows). *)
let branch_query (q : Ast.query) (ps, fs) =
  ignore q;
  Ast.mk_query ~filters:fs ps

let fetch_expansions ts ~origin q =
  List.filter_map
    (fun a ->
      match Tstore.equivalent_attrs_sync ts ~origin a with
      | [] | [ _ ] -> None
      | eqs -> Some (a, eqs))
    (const_attrs q)

let cached_probe cache = Option.map (fun c a -> Qcache.cached_access c a) cache

let plan_query ts stats ~replication ?cache ?(expand_mappings = false) ~origin q =
  let env = Cost.env_of_dht (Tstore.dht ts) ~replication in
  let expansions = if expand_mappings then fetch_expansions ts ~origin q else [] in
  let qgrams = Tstore.qgrams_enabled ts in
  let cached = cached_probe cache in
  let main =
    Optimizer.plan env stats ~qgrams ?cached ~expansions { q with Ast.union_branches = [] }
  in
  let branches =
    List.map (fun b -> Optimizer.plan env stats ~qgrams ?cached ~expansions (branch_query q b))
      q.Ast.union_branches
  in
  { main with Physical.branches }

let run ts stats ~replication ?metrics ?cache ?(strategy = Centralized)
    ?(expand_mappings = false) ~origin q =
  let env = Cost.env_of_dht (Tstore.dht ts) ~replication in
  let expansions = if expand_mappings then fetch_expansions ts ~origin q else [] in
  let qgrams = Tstore.qgrams_enabled ts in
  let strategy =
    match strategy with
    | Mutant when (Tstore.dht ts).Dht.send_task = None ->
      (* Not silent: the caller asked for plan shipping and is getting a
         different execution model — record it and say so. *)
      (match metrics with
      | Some m -> Unistore_obs.Metrics.incr m "engine.mutant_downgrade"
      | None -> ());
      Format.eprintf
        "unistore: warning: substrate cannot ship plans; mutant execution downgraded to          centralized@.";
      Centralized
    | s -> s
  in
  let cached = cached_probe cache in
  (* Each UNION branch executes independently; the combined rows then go
     through the query's post-processing exactly once. *)
  let run_branch (bq : Ast.query) =
    let plan = Optimizer.plan env stats ~qgrams ?cached ~expansions bq in
    let result =
      match strategy with
      | Centralized -> Exec.run_centralized ?cache ts ~origin plan
      | Mutant -> Exec.run_mutant ?cache ts stats env ~origin bq ~expansions
    in
    (plan, result)
  in
  match q.Ast.union_branches with
  | [] ->
    (* Skyline queries of the canonical shape run as a leaf-reduced scan
       when the substrate ships closures: dominated tuples are dropped at
       the peers that hold them instead of travelling to the origin. *)
    let pushdown =
      match (strategy, Exec.skyline_pushdown_shape q) with
      | Centralized, Some (goals, subj, av) when Tstore.skyline_scan_supported ts ->
        Some (Exec.run_skyline_pushdown ts ~origin q ~goals ~subj ~av)
      | _ -> None
    in
    let plan, result = match pushdown with Some pr -> pr | None -> run_branch q in
    {
      columns = columns_of q;
      rows = result.Exec.rows;
      messages = result.Exec.messages;
      latency = result.Exec.latency;
      complete = result.Exec.complete;
      completeness = result.Exec.completeness;
      plan;
      strategy;
      traces = result.Exec.traces;
      bytes_shipped = result.Exec.bytes_shipped;
    }
  | union_branches ->
    let sub_queries =
      branch_query q (q.Ast.patterns, q.Ast.filters)
      :: List.map (branch_query q) union_branches
    in
    let results = List.map run_branch sub_queries in
    let rows = List.concat_map (fun (_, r) -> r.Exec.rows) results in
    let post_plan =
      {
        Physical.steps = [];
        post_filters = [];
        order = q.Ast.order;
        projection = q.Ast.projection;
        distinct = q.Ast.distinct;
        limit = q.Ast.limit;
        expansions;
        total_est = { Cost.messages = 0.0; latency = 0.0; cardinality = 0.0 };
        branches = [];
      }
    in
    let rows = Exec.postprocess post_plan rows in
    let plans = List.map fst results in
    let plan =
      match plans with
      | main :: rest -> { main with Physical.branches = rest }
      | [] -> assert false
    in
    {
      columns = columns_of q;
      rows;
      messages = List.fold_left (fun acc (_, r) -> acc + r.Exec.messages) 0 results;
      latency = List.fold_left (fun acc (_, r) -> acc +. r.Exec.latency) 0.0 results;
      complete = List.for_all (fun (_, r) -> r.Exec.complete) results;
      completeness =
        List.fold_left (fun acc (_, r) -> Float.min acc r.Exec.completeness) 1.0 results;
      plan;
      strategy;
      traces = List.concat_map (fun (_, r) -> r.Exec.traces) results;
      bytes_shipped = List.fold_left (fun acc (_, r) -> acc + r.Exec.bytes_shipped) 0 results;
    }

(* The analyzer's catalog, derived from the collected statistics: an
   attribute's observed types come from [string_valued] and the dominant
   type of its value bounds. *)
let catalog_of_stats (stats : Qstats.t) =
  List.fold_left
    (fun cat (a, (s : Qstats.attr_stats)) ->
      let of_value v = Unistore_analysis.Catalog.vtype_of_value v in
      let types =
        (if s.Qstats.string_valued then [ Unistore_analysis.Catalog.Str ] else [])
        @ (match s.Qstats.lo with Some v -> [ of_value v ] | None -> [])
        @ (match s.Qstats.hi with Some v -> [ of_value v ] | None -> [])
        |> List.sort_uniq compare
      in
      Unistore_analysis.Catalog.add_info cat a
        { Unistore_analysis.Catalog.types; count = s.Qstats.count })
    Unistore_analysis.Catalog.empty stats.Qstats.attrs

let analyze stats q = Unistore_analysis.Semantic.analyze ~catalog:(catalog_of_stats stats) q

(* String-entry queries pass through the static analyzer; plans with
   error-severity diagnostics are refused before any message is sent.
   [run] (the AST entry) stays ungated for callers that build plans
   programmatically. *)
let run_string ts stats ~replication ?metrics ?cache ?strategy ?expand_mappings ~origin src =
  match Parser.parse src with
  | Error e -> Error e
  | Ok q ->
    let diags = analyze stats q in
    if Unistore_analysis.Diagnostic.has_errors diags then
      Error (Unistore_analysis.Diagnostic.render_all ~src diags)
    else Ok (run ts stats ~replication ?metrics ?cache ?strategy ?expand_mappings ~origin q)

(* The EXPLAIN ANALYZE view: reshape the execution traces into the
   substrate-independent profile record of the observability layer. *)
let profile ?query (r : report) =
  let ops =
    List.map
      (fun (t : Exec.step_trace) ->
        {
          Unistore_obs.Profile.label =
            Format.asprintf "%a" Ast.pp_pattern t.Exec.step.Physical.pattern;
          access = Format.asprintf "%a" Cost.pp_access t.Exec.step.Physical.access;
          carrier = t.Exec.carrier;
          rows_in = t.Exec.rows_in;
          rows_out = t.Exec.actual_card;
          messages = t.Exec.messages;
          latency_ms = t.Exec.latency;
        })
      r.traces
  in
  {
    Unistore_obs.Profile.query;
    strategy = Format.asprintf "%a" pp_strategy r.strategy;
    rows = List.length r.rows;
    messages = r.messages;
    latency_ms = r.latency;
    bytes_shipped = r.bytes_shipped;
    complete = r.complete;
    completeness = r.completeness;
    ops;
  }
