module Ast = Unistore_vql.Ast
module Parser = Unistore_vql.Parser
module Value = Unistore_triple.Value
module Tstore = Unistore_triple.Tstore
module Cps = Unistore_util.Cps

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
let branch_query (ps, fs) = Ast.mk_query ~filters:fs ps

(* One attribute after another, in [const_attrs] order. *)
let fetch_expansions ts ~origin q ~k =
  Cps.map
    (fun a ~k -> Tstore.equivalent_attrs ts ~origin a ~k:(fun eqs -> k (a, eqs)))
    (const_attrs q)
    ~k:(fun found -> k (List.filter (fun (_, eqs) -> List.compare_length_with eqs 1 > 0) found))

(* What planning needs, shared by [explain] and [start]: the cost
   environment, the mapping expansions (fetched from the store when
   asked for) and the planner over them. *)
type planner = {
  env : Cost.env;
  expansions : (string * string list) list;
  plan : Ast.query -> Physical.t;
}

let planner ts stats ~replication ?cache ~expand_mappings ~origin q ~k =
  let env = Cost.env_of_dht (Tstore.dht ts) ~replication in
  let qgrams = Tstore.qgrams_enabled ts in
  let cached = Option.map (fun c a -> Qcache.cached_access c a) cache in
  let with_expansions expansions =
    k { env; expansions; plan = Optimizer.plan env stats ~qgrams ?cached ~expansions }
  in
  if expand_mappings then fetch_expansions ts ~origin q ~k:with_expansions else with_expansions []

let explain ts stats ~replication ?cache ?(expand_mappings = false) ~origin q ~k =
  planner ts stats ~replication ?cache ~expand_mappings ~origin q ~k:(fun p ->
      let main = p.plan { q with Ast.union_branches = [] } in
      let branches = List.map (fun b -> p.plan (branch_query b)) q.Ast.union_branches in
      k { main with Physical.branches })

let report_of q strategy plan (r : Exec.run_result) =
  {
    columns = columns_of q;
    rows = r.Exec.rows;
    messages = r.Exec.messages;
    latency = r.Exec.latency;
    complete = r.Exec.complete;
    completeness = r.Exec.completeness;
    plan;
    strategy;
    traces = r.Exec.traces;
    bytes_shipped = r.Exec.bytes_shipped;
  }

let start ts stats ~replication ?cache ?(strategy = Centralized)
    ?(expand_mappings = false) ~origin q ~k =
  planner ts stats ~replication ?cache ~expand_mappings ~origin q ~k:(fun p ->
      (* Each UNION branch executes independently, one after another; the
         combined rows then go through the query's post-processing
         exactly once. *)
      let run_branch (bq : Ast.query) ~k =
        let plan = p.plan bq in
        let k result = k (plan, result) in
        match strategy with
        | Centralized -> Exec.run_centralized ?cache ts stats ~origin plan ~k
        | Mutant ->
          Exec.run_mutant ?cache ts stats p.env ~origin bq ~expansions:p.expansions ~k
      in
      match q.Ast.union_branches with
      | [] -> (
        let k (plan, result) = k (report_of q strategy plan result) in
        (* Skyline queries of the canonical shape run as a leaf-reduced
           scan when the substrate ships closures: dominated tuples are
           dropped at the peers that hold them instead of travelling to
           the origin. *)
        match (strategy, Exec.skyline_pushdown_shape q, Tstore.oid_scan_reduce ts) with
        | Centralized, Some (goals, subj, av), Some scan ->
          Exec.run_skyline_pushdown ts ~scan ~origin q ~goals ~subj ~av ~k
        | _ -> run_branch q ~k)
      | union_branches ->
        let sub_queries =
          branch_query (q.Ast.patterns, q.Ast.filters) :: List.map branch_query union_branches
        in
        Cps.map run_branch sub_queries ~k:(fun results ->
            let rows =
              Exec.postprocess
                (Physical.post_only ~expansions:p.expansions q)
                (List.concat_map (fun (_, r) -> r.Exec.rows) results)
            in
            let plan =
              match List.map fst results with
              | main :: rest -> { main with Physical.branches = rest }
              | [] -> assert false
            in
            k
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
                bytes_shipped =
                  List.fold_left (fun acc (_, r) -> acc + r.Exec.bytes_shipped) 0 results;
              }))

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
   [start] (the AST entry) stays ungated for callers that build plans
   programmatically. *)
let parse_checked stats src =
  match Parser.parse src with
  | Error e -> Error e
  | Ok q ->
    let diags = analyze stats q in
    if Unistore_analysis.Diagnostic.has_errors diags then
      Error (Unistore_analysis.Diagnostic.render_all ~src diags)
    else Ok q

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
          at_start = t.Exec.at_start;
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
