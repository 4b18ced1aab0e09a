(* unistore-cli: the command-line counterpart of the paper's demo UI.

   Subcommands:
   - query:   spin up a deployment, load the publications workload (or
              demo restaurants), run one VQL query, print plan + results.
   - repl:    interactive loop — type VQL queries against a live overlay
              (plus \commands to inspect it), like the demo's tabbed UI.
   - inspect: print the overlay structure: peer paths, routing-table and
              storage-load distribution. *)

module Latency = Unistore_sim.Latency
module Publications = Unistore_workload.Publications
module Demo_data = Unistore_workload.Demo_data
module Node = Unistore_pgrid.Node
module Overlay = Unistore_pgrid.Overlay
module Store = Unistore_pgrid.Store
module Bitkey = Unistore_util.Bitkey
module Stats = Unistore_util.Stats

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)

let peers_t =
  Arg.(value & opt int 32 & info [ "p"; "peers" ] ~docv:"N" ~doc:"Number of simulated peers.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let overlay_t =
  let enumc = Arg.enum [ ("pgrid", Unistore.Pgrid); ("chord", Unistore.Chord_trie) ] in
  Arg.(value & opt enumc Unistore.Pgrid & info [ "overlay" ] ~docv:"KIND" ~doc:"Overlay substrate: $(b,pgrid) or $(b,chord).")

let latency_t =
  let enumc = Arg.enum [ ("lan", Latency.Lan); ("planetlab", Latency.Planetlab) ] in
  Arg.(value & opt enumc Latency.Lan & info [ "latency" ] ~docv:"MODEL" ~doc:"Latency model: $(b,lan) or $(b,planetlab).")

let backend_t =
  let enumc = Arg.enum [ ("hash", `Hash); ("log", `Log); ("packed", `Packed) ] in
  Arg.(value & opt enumc `Hash
       & info [ "backend" ] ~docv:"KIND"
           ~doc:"Per-peer storage backend (P-Grid only): $(b,hash) (in-memory ordered map, \
                 the default), $(b,log) (file-backed log-structured, one append-only file \
                 per peer under a temp directory, crash-restart capable) or $(b,packed) \
                 (dictionary-compressed in-memory).")

(* [log] keeps one append-only file per peer; key the directory by seed
   so two concurrent invocations don't replay each other's segments. *)
let resolve_backend ~seed = function
  | `Hash -> Unistore_pgrid.Store_intf.Hash
  | `Packed -> Unistore_pgrid.Store_intf.Packed
  | `Log ->
    let dir =
      Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "unistore-log-%d" seed)
    in
    Unistore_pgrid.Store_intf.Log { dir }

let authors_t =
  Arg.(value & opt int 20 & info [ "authors" ] ~docv:"N" ~doc:"Authors in the generated publications dataset.")

let dataset_t =
  let enumc = Arg.enum [ ("publications", `Publications); ("restaurants", `Restaurants) ] in
  Arg.(value & opt enumc `Publications & info [ "dataset" ] ~docv:"NAME" ~doc:"Workload to preload: $(b,publications) or $(b,restaurants).")

let strategy_t =
  let enumc = Arg.enum [ ("centralized", Unistore.Centralized); ("mutant", Unistore.Mutant) ] in
  Arg.(value & opt enumc Unistore.Centralized & info [ "strategy" ] ~docv:"S" ~doc:"Execution strategy: $(b,centralized) or $(b,mutant).")

let no_cache_t =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable the caching subsystem (routing shortcuts, result caches, gossiped \
                 statistics); the optimizer then plans from oracle statistics.")

let churn_t =
  Arg.(value & opt float 0.0
       & info [ "churn" ] ~docv:"RATE"
           ~doc:"Inject crash/revive churn: every 10ms of simulated time, kill this fraction \
                 of the alive peers (each revives 10ms later), so even a single query runs \
                 through several kill waves. 0 disables.")

let fault_seed_t =
  Arg.(value & opt int 7
       & info [ "fault-seed" ] ~docv:"N"
           ~doc:"Seed of the fault-injection scenario. The same seed against the same \
                 deployment replays the identical failure schedule.")

let setup_keys ~peers ~seed ~overlay ~latency ~authors ~dataset ~no_cache
    ?(store = Unistore_pgrid.Store_intf.Hash) () =
  let rng = Unistore_util.Rng.create (seed + 1) in
  let tuples, triples, sample =
    match dataset with
    | `Publications ->
      let ds =
        Publications.generate rng { Publications.default_params with n_authors = authors; typo_rate = 0.1 }
      in
      (ds.Publications.tuples, ds.Publications.triples, Publications.sample_keys ds)
    | `Restaurants ->
      let tuples = Demo_data.restaurants in
      let triples =
        List.concat_map
          (fun (oid, fields) -> Unistore.Triple.tuple_to_triples ~oid fields)
          tuples
      in
      let sample =
        List.map
          (fun (tr : Unistore.Triple.t) ->
            Unistore_triple.Keys.attr_value_key tr.Unistore.Triple.attr tr.Unistore.Triple.value)
          triples
      in
      (tuples, triples, sample)
  in
  let cache = if no_cache then Unistore.no_cache else Unistore.default_cache_config in
  let store =
    Unistore.create ~sample_keys:sample
      { Unistore.default_config with peers; seed; overlay; latency; cache; store }
  in
  let n = Unistore.load store tuples in
  Unistore.set_stats_of_triples store triples;
  Unistore.settle store;
  (* With caching on, let the statistics gossip converge so the optimizer
     plans from gossiped summaries rather than the oracle statistics. *)
  if not no_cache then
    for _ = 1 to 4 do
      Unistore.gossip_stats_round store
    done;
  Format.printf "[%d peers, %s overlay, %d triples loaded]@."
    peers
    (match overlay with Unistore.Pgrid -> "P-Grid" | Unistore.Chord_trie -> "Chord+trie")
    n;
  (store, sample)

let setup ~peers ~seed ~overlay ~latency ~authors ~dataset ~no_cache
    ?(store = Unistore_pgrid.Store_intf.Hash) () =
  fst (setup_keys ~peers ~seed ~overlay ~latency ~authors ~dataset ~no_cache ~store ())

(* ------------------------------------------------------------------ *)
(* query                                                               *)

(* EXPLAIN ANALYZE: the chosen physical plan with the optimizer's cost
   estimate next to what each step actually did (from the execution
   traces that also feed {!Unistore_obs.Profile}). *)
let print_explain_analyze (report : Unistore.Report.report) =
  Format.printf "@.plan (estimated vs actual):@.";
  List.iter
    (fun (t : Unistore_qproc.Exec.step_trace) ->
      let step = t.Unistore_qproc.Exec.step in
      Format.printf "  %a via %a%s at peer%d@."
        Unistore_vql.Ast.pp_pattern step.Unistore_qproc.Physical.pattern
        Unistore_qproc.Cost.pp_access step.Unistore_qproc.Physical.access
        (if step.Unistore_qproc.Physical.bindjoin then " (bind-join)" else "")
        t.Unistore_qproc.Exec.carrier;
      Format.printf "    estimated: %a@." Unistore_qproc.Cost.pp_estimate
        step.Unistore_qproc.Physical.est;
      Format.printf "    actual:    msgs=%d latency=%.1fms rows=%d -> %d@."
        t.Unistore_qproc.Exec.messages t.Unistore_qproc.Exec.latency
        t.Unistore_qproc.Exec.rows_in t.Unistore_qproc.Exec.actual_card)
    report.Unistore.Report.traces;
  Format.printf "  total estimated: %a@." Unistore_qproc.Cost.pp_estimate
    report.Unistore.Report.plan.Unistore_qproc.Physical.total_est;
  Format.printf "  total actual:    msgs=%d latency=%.1fms rows=%d@."
    report.Unistore.Report.messages report.Unistore.Report.latency
    (List.length report.Unistore.Report.rows)

let run_query peers seed overlay latency authors dataset backend strategy no_cache churn
    fault_seed explain explain_only trace profile metrics check vql =
  let store =
    setup ~peers ~seed ~overlay ~latency ~authors ~dataset ~no_cache
      ~store:(resolve_backend ~seed backend) ()
  in
  let faults =
    if churn > 0.0 then begin
      let spec =
        (* A single query lives for tens of simulated ms, so the CLI uses
           the bench cadence (kill wave every 10ms, peers down 10ms):
           steady-state dead fraction ~ rate, and every query actually
           meets churn. *)
        Unistore.Faults.spec ~seed:fault_seed
          ~churn:(Unistore.Faults.churn_spec ~interval_ms:10.0 ~down_ms:10.0 ~rate:churn ())
          ~protected:[ 0 ] ()
      in
      match Unistore.inject_faults store spec with
      | Some h ->
        Format.printf "[churn %.0f%% every 10ms, fault seed %d]@." (100.0 *. churn) fault_seed;
        Some h
      | None ->
        Format.printf "[churn ignored: fault injection needs the P-Grid overlay]@.";
        None
    end
    else None
  in
  if check then begin
    (* Static analysis only: parse, run the semantic analyzer against the
       catalog derived from the loaded dataset's statistics, report
       rustc-style diagnostics. Non-zero exit on parse or Error-severity
       diagnostics; the query is never executed. *)
    match Unistore.check store vql with
    | Error e ->
      Format.printf "%s@." e;
      exit 1
    | Ok diags ->
      Format.printf "%s@." (Unistore.Diagnostic.render_all ~src:vql diags);
      exit (if Unistore.Diagnostic.has_errors diags then 1 else 0)
  end;
  (* Scope the metrics dump to the query itself, not the bulk load. *)
  if metrics then Unistore.reset_metrics store;
  (match Unistore.explain store vql with
  | Ok plan -> Format.printf "@.%a@." Unistore.pp_plan plan
  | Error e ->
    Format.printf "error: %s@." e;
    exit 1);
  if not explain_only then begin
    match Unistore.query store ~strategy vql with
    | Ok report ->
      Format.printf "@.%a@." Unistore.pp_table report;
      Format.printf "strategy=%a bytes_shipped=%d@." Unistore.Report.pp_strategy
        report.Unistore.Report.strategy report.Unistore.Report.bytes_shipped;
      if explain then print_explain_analyze report;
      if trace then begin
        (* The paper's traceability story: per-step execution log. *)
        Format.printf "@.execution trace:@.";
        List.iter
          (fun t -> Format.printf "  %a@." Unistore_qproc.Exec.pp_step_trace t)
          report.Unistore.Report.traces
      end;
      if profile then
        (* EXPLAIN ANALYZE: per-operator rows/messages/latency. *)
        Format.printf "@.query profile:@.%a@." Unistore.pp_profile
          (Unistore.profile ~query:vql report);
      if metrics then Format.printf "@.deployment metrics:@.%s@." (Unistore.metrics_json store);
      (match faults with
      | Some h -> Format.printf "@.faults fired: %a@." Unistore.Faults.pp h
      | None -> ())
    | Error e ->
      Format.printf "error: %s@." e;
      exit 1
  end

let query_cmd =
  let vql_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"VQL" ~doc:"The VQL query.") in
  let explain_t =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Execute, then print the chosen physical plan with each step's estimated cost \
                   (messages/latency/cardinality) next to what it actually cost.")
  in
  let explain_only_t =
    Arg.(value & flag & info [ "explain-only" ] ~doc:"Only show the plan; do not execute.")
  in
  let trace_t =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the per-step execution trace (operator, carrier peer, rows, messages).")
  in
  let profile_t =
    Arg.(value & flag & info [ "profile" ] ~doc:"Print the per-operator query profile: rows in/out, messages, simulated latency per executed step, plus end-to-end totals.")
  in
  let metrics_t =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Print the deployment metrics registry (per-kind message counts, hop/latency histograms) as JSON, scoped to the query.")
  in
  let check_t =
    Arg.(value & flag & info [ "check" ] ~doc:"Static analysis only: run the VQL semantic analyzer (unbound variables, type clashes against the dataset catalog, unsatisfiable filters, Cartesian products, LIMIT/ORDER problems) and exit without executing. Exit status is non-zero on parse errors or error-severity diagnostics.")
  in
  let term =
    Term.(
      const run_query $ peers_t $ seed_t $ overlay_t $ latency_t $ authors_t $ dataset_t
      $ backend_t $ strategy_t $ no_cache_t $ churn_t $ fault_seed_t
      $ explain_t $ explain_only_t $ trace_t $ profile_t $ metrics_t $ check_t $ vql_t)
  in
  Cmd.v (Cmd.info "query" ~doc:"Run one VQL query over a freshly built deployment") term

(* ------------------------------------------------------------------ *)
(* lint — run the whole static-analysis layer against a live deployment *)

(* The paper's running example (section 2): authors, publications,
   conferences; skyline over age/productivity with a similarity filter. *)
let paper_query =
  "SELECT ?name,?age,?cnt\n\
   WHERE {(?a,'name',?name) (?a,'age',?age)\n\
   (?a,'num_of_pubs',?cnt)\n\
   (?a,'has_published',?title) (?p,'title',?title)\n\
   (?p,'published_in',?conf) (?c,'confname',?conf)\n\
   (?c,'series',?sr) FILTER edist(?sr,'ICDE')<3\n\
   }\n\
   ORDER BY SKYLINE OF ?age MIN, ?cnt MAX"

let demo_workload = function
  | `Publications ->
    [
      "SELECT ?name,?age WHERE { (?a,'name',?name) (?a,'age',?age) FILTER ?age > 30 }";
      "SELECT ?t,?y WHERE { (?p,'title',?t) (?p,'year',?y) FILTER ?y >= 2000 } ORDER BY ?y DESC LIMIT 5";
      paper_query;
    ]
  | `Restaurants ->
    [
      "SELECT ?n WHERE { (?r,'rest_name',?n) (?r,'cuisine',?c) FILTER contains(?c,'ital') }";
      "SELECT ?n,?p WHERE { (?r,'rest_name',?n) (?r,'price',?p) } ORDER BY ?p LIMIT 3";
    ]

let lint peers seed overlay latency authors dataset allowed_revisits =
  let store = setup ~peers ~seed ~overlay ~latency ~authors ~dataset ~no_cache:false () in
  let failures = ref 0 in
  let report section diags =
    Format.printf "@.%s:@." section;
    Format.printf "  %s@."
      (String.concat "\n  " (String.split_on_char '\n' (Unistore.Diagnostic.render_all diags)));
    if Unistore.Diagnostic.has_errors diags then incr failures
  in
  (* 1. Semantic analysis of the demo workload (should be clean). *)
  let sem_diags =
    List.concat_map
      (fun src ->
        match Unistore.check store src with
        | Ok ds -> ds
        | Error e ->
          [ Unistore.Diagnostic.makef ~severity:Unistore.Diagnostic.Error ~code:"parse-error"
              "demo query failed to parse: %s" (String.trim e) ])
      (demo_workload dataset)
  in
  report "semantic analyzer (demo workload)" sem_diags;
  (* 2. Trace linting: record a traced window covering the workload plus
     one write, then check request/reply matching, routing loops, clock
     monotonicity and message-count conservation against the metrics
     registry (both attached at the same instant, so they cover the same
     window). *)
  Unistore.reset_metrics store;
  let tr = Unistore.start_trace store in
  List.iter
    (fun src ->
      match Unistore.query store src with
      | Ok _ -> ()
      | Error e -> Format.printf "warning: demo query failed: %s@." (String.trim e))
    (demo_workload dataset);
  ignore
    (Unistore.insert_tuple store ~oid:"lint-probe"
       [ ("name", Unistore.Value.S "lint probe"); ("age", Unistore.Value.I 1) ]);
  Unistore.settle store;
  Unistore.stop_trace store;
  report "trace linter"
    (Unistore.lint_trace store ~allowed_revisits ~against_metrics:true tr);
  (* 3. Overlay invariant audit (trie consistency / ring well-formedness,
     data placement, replica agreement). *)
  report "overlay auditor" (Unistore.audit store);
  if !failures = 0 then Format.printf "@.lint: OK@."
  else Format.printf "@.lint: %d section(s) with errors@." !failures;
  exit (if !failures = 0 then 0 else 1)

let lint_cmd =
  let revisits_t =
    Arg.(value & opt int 0
         & info [ "allowed-revisits" ] ~docv:"N"
             ~doc:"Times a correlated message may revisit the same peer before the trace linter calls it a routing loop (raise for retry-heavy runs).")
  in
  let term =
    Term.(
      const lint $ peers_t $ seed_t $ overlay_t $ latency_t $ authors_t $ dataset_t $ revisits_t)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the full static-analysis layer: semantic-check the demo workload, lint a recorded message trace, audit overlay invariants")
    term

(* ------------------------------------------------------------------ *)
(* lint-src — the source-level linter over this repo's own tree         *)

let lint_src rule_names paths =
  let rules =
    match rule_names with
    | [] -> Unistore.Srclint.all_rules
    | names ->
      List.map
        (fun n ->
          match Unistore.Srclint.rule_of_name n with
          | Some r -> r
          | None ->
            Format.eprintf "lint-src: unknown rule '%s'; known: %s@." n
              (String.concat ", "
                 (List.map Unistore.Srclint.rule_name Unistore.Srclint.all_rules));
            exit 2)
        names
  in
  let paths = match paths with [] -> [ "lib"; "bin" ] | ps -> ps in
  (match List.filter (fun p -> not (Sys.file_exists p)) paths with
  | [] -> ()
  | missing ->
    Format.eprintf "lint-src: no such path: %s@." (String.concat ", " missing);
    exit 2);
  let reports = Unistore.lint_src ~rules paths in
  print_string (Unistore.Srclint.render_reports reports);
  exit (if Unistore.Srclint.has_errors reports then 1 else 0)

let lint_src_cmd =
  let rules_t =
    Arg.(value & opt_all string []
         & info [ "rule" ] ~docv:"RULE"
             ~doc:"Enable only this rule (repeatable). Default: all of unordered-iteration, ambient-effects, polymorphic-compare, protocol-exhaustiveness.")
  in
  let paths_t = Arg.(value & pos_all string [] & info [] ~docv:"PATH") in
  let term = Term.(const lint_src $ rules_t $ paths_t) in
  Cmd.v
    (Cmd.info "lint-src"
       ~doc:"Lint this repository's OCaml sources for determinism hazards (unordered hashtable iteration, ambient randomness/time, polymorphic compare at float/Bitkey positions) and protocol-table exhaustiveness")
    term

(* ------------------------------------------------------------------ *)
(* traffic — open-loop load generation against a live deployment        *)

let run_traffic peers seed latency authors dataset scenario arrival_rate peak duration warmup
    zipf_s service_ms traffic_seed no_balancing =
  let store, keys =
    setup_keys ~peers ~seed ~overlay:Unistore.Pgrid ~latency ~authors ~dataset ~no_cache:false ()
  in
  let keys = List.sort_uniq String.compare keys in
  let cfg =
    {
      Unistore.default_traffic_config with
      Unistore.scenario;
      arrival_rate;
      peak;
      traffic_duration_ms = duration;
      traffic_warmup_ms = warmup;
      traffic_zipf_s = zipf_s;
      service_ms;
      traffic_seed;
      balance = (if no_balancing then Unistore.no_balancing else Unistore.default_balance_config);
    }
  in
  Format.printf "[traffic: %s, %.0f q/s base%s, zipf %.2f, service %.1fms/msg, %s]@."
    (match scenario with
    | Unistore.Steady_load -> "steady"
    | Unistore.Flash_crowd -> "flash crowd"
    | Unistore.Diurnal_load -> "diurnal")
    arrival_rate
    (match scenario with
    | Unistore.Flash_crowd -> Printf.sprintf " (peak x%.1f)" peak
    | _ -> "")
    zipf_s service_ms
    (if no_balancing then "static baseline (no balancing)" else "adaptive balancing");
  Unistore.reset_metrics store;
  let r = Unistore.run_traffic store ~keys cfg in
  let e = r.Unistore.engine in
  Format.printf "@.traffic profile (measurement window):@.";
  Format.printf "  offered %d, measured %d, ok %d, served in-window %d, gave up %d@."
    e.Unistore.Traffic.offered e.Unistore.Traffic.measured e.Unistore.Traffic.ok
    e.Unistore.Traffic.served_in_window e.Unistore.Traffic.giveups;
  Format.printf "  served throughput: %.1f q/s@." e.Unistore.Traffic.throughput_qps;
  Format.printf "  query latency ms: mean %.1f / p50 %.1f / p90 %.1f / p99 %.1f / max %.1f@."
    e.Unistore.Traffic.lat_mean_ms e.Unistore.Traffic.lat_p50_ms e.Unistore.Traffic.lat_p90_ms
    e.Unistore.Traffic.lat_p99_ms e.Unistore.Traffic.lat_max_ms;
  Format.printf "  queueing delay ms: p50 %.1f / p99 %.1f / max %.1f (%d of %d messages waited)@."
    r.Unistore.queue_p50_ms r.Unistore.queue_p99_ms r.Unistore.queue_max_ms
    r.Unistore.queue_delayed r.Unistore.queue_msgs;
  Format.printf "  retries %d; boosts spawned %d, retired %d; boost-served lookups %d@."
    r.Unistore.retries r.Unistore.boosts_spawned r.Unistore.boosts_retired r.Unistore.hot_serves;
  Format.printf "  results digest: %s@." r.Unistore.results_digest

let traffic_cmd =
  let scenario_t =
    let enumc =
      Arg.enum
        [
          ("steady", Unistore.Steady_load);
          ("flash", Unistore.Flash_crowd);
          ("diurnal", Unistore.Diurnal_load);
        ]
    in
    Arg.(value & opt enumc Unistore.Flash_crowd
         & info [ "traffic" ] ~docv:"SCENARIO"
             ~doc:"Load schedule: $(b,steady), $(b,flash) (crowd ramps to a peak and holds it \
                   until the stream ends) or $(b,diurnal) (sinusoidal day/night cycle).")
  in
  let rate_t =
    Arg.(value & opt float 120.0
         & info [ "arrival-rate" ] ~docv:"QPS"
             ~doc:"Base offered load in queries per second. The open-loop generator never slows \
                   down when the system backs up; that is the point.")
  in
  let peak_t =
    Arg.(value & opt float 10.0
         & info [ "peak" ] ~docv:"X" ~doc:"Flash-crowd peak multiplier (flash scenario only).")
  in
  let duration_t =
    Arg.(value & opt float 16_000.0
         & info [ "duration" ] ~docv:"MS" ~doc:"Arrival stream length, simulated ms.")
  in
  let warmup_t =
    Arg.(value & opt float 2_000.0
         & info [ "warmup" ] ~docv:"MS" ~doc:"Requests issued before this instant are not measured.")
  in
  let zipf_t =
    Arg.(value & opt float 1.1
         & info [ "zipf" ] ~docv:"S" ~doc:"Key-popularity skew: Zipf exponent over the sorted key population.")
  in
  let service_t =
    Arg.(value & opt float 3.0
         & info [ "service-ms" ] ~docv:"MS"
             ~doc:"Per-message service time of every peer's FIFO queue; 0 disables the queueing model.")
  in
  let traffic_seed_t =
    Arg.(value & opt int 0x7AF1C
         & info [ "traffic-seed" ] ~docv:"SEED"
             ~doc:"Seed of the workload stream, independent of the deployment seed: the same \
                   value replays a byte-identical request sequence.")
  in
  let no_balancing_t =
    Arg.(value & flag
         & info [ "no-balancing" ]
             ~doc:"Disable adaptive load balancing (per-peer EWMA retry deadlines, hot-region \
                   boost replication, serving-set rotation); the experimental static baseline.")
  in
  let term =
    Term.(
      const run_traffic $ peers_t $ seed_t $ latency_t $ authors_t $ dataset_t $ scenario_t
      $ rate_t $ peak_t $ duration_t $ warmup_t $ zipf_t $ service_t $ traffic_seed_t
      $ no_balancing_t)
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:"Drive an open-loop traffic stream (steady, flash crowd or diurnal) against a live \
             P-Grid deployment and print served throughput, latency and queueing-delay \
             percentiles")
    term

(* ------------------------------------------------------------------ *)
(* repl                                                                *)

let repl peers seed overlay latency authors dataset backend =
  let store =
    setup ~peers ~seed ~overlay ~latency ~authors ~dataset ~no_cache:false
      ~store:(resolve_backend ~seed backend) ()
  in
  Format.printf
    "Interactive VQL. End with ';' on its own line. Commands: \\help \\stats \\peers \\quit@.";
  let buf = Buffer.create 256 in
  let rec loop () =
    if Buffer.length buf = 0 then Format.printf "vql> @?" else Format.printf "...> @?";
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
      let trimmed = String.trim line in
      if trimmed = "\\quit" || trimmed = "\\q" then ()
      else if trimmed = "\\help" then begin
        Format.printf
          "Enter a VQL query terminated by ';'. \\stats = data statistics, \\peers = overlay \
           summary, \\quit = exit.@.";
        loop ()
      end
      else if trimmed = "\\stats" then begin
        Format.printf "%a@." Unistore_qproc.Qstats.pp (Unistore.stats store);
        loop ()
      end
      else if trimmed = "\\peers" then begin
        (match Unistore.pgrid store with
        | Some ov ->
          List.iter (fun nd -> Format.printf "  %a@." Node.pp nd) (Overlay.nodes ov)
        | None -> Format.printf "  (chord overlay: %d peers)@." peers);
        loop ()
      end
      else begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        if String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = ';' then begin
          let src = Buffer.contents buf in
          Buffer.clear buf;
          let src = String.sub src 0 (String.rindex src ';') in
          (match Unistore.query store src with
          | Ok report -> Format.printf "%a@." Unistore.pp_table report
          | Error e -> Format.printf "error: %s@." e);
          loop ()
        end
        else loop ()
      end
  in
  loop ()

let repl_cmd =
  let term =
    Term.(
      const repl $ peers_t $ seed_t $ overlay_t $ latency_t $ authors_t $ dataset_t $ backend_t)
  in
  Cmd.v (Cmd.info "repl" ~doc:"Interactive VQL shell against a live simulated overlay") term

(* ------------------------------------------------------------------ *)
(* inspect                                                             *)

let inspect peers seed overlay latency authors dataset =
  let store = setup ~peers ~seed ~overlay ~latency ~authors ~dataset ~no_cache:false () in
  match Unistore.pgrid store with
  | None -> Format.printf "inspect currently supports the P-Grid overlay only@."
  | Some ov ->
    Format.printf "@.Trie depth: %d@." (Overlay.depth ov);
    Format.printf "@.Peer paths, routing tables and storage load:@.";
    List.iter
      (fun (nd : Node.t) ->
        Format.printf "  peer%-4d path=%-12s refs=%-3d replicas=%d items=%d@." nd.Node.id
          (Bitkey.to_string nd.Node.path) (Node.table_size nd)
          (List.length nd.Node.replicas) (Store.size nd.Node.store))
      (Overlay.nodes ov);
    let sizes =
      Overlay.nodes ov |> List.map (fun (nd : Node.t) -> float_of_int (Store.size nd.Node.store))
    in
    let s = Stats.summarize sizes in
    Format.printf "@.Storage balance: %a@." Stats.pp_summary s;
    let violations = Unistore_pgrid.Build.check_invariants ov in
    if violations = [] then Format.printf "Structural invariants: OK@."
    else begin
      Format.printf "Structural violations:@.";
      List.iter (fun v -> Format.printf "  %s@." v) violations
    end

let inspect_cmd =
  let term =
    Term.(const inspect $ peers_t $ seed_t $ overlay_t $ latency_t $ authors_t $ dataset_t)
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print overlay structure: paths, routing tables, storage balance")
    term

let () =
  let doc = "UniStore: querying a DHT-based universal storage (simulated deployment)" in
  let info = Cmd.info "unistore-cli" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ query_cmd; traffic_cmd; repl_cmd; inspect_cmd; lint_cmd; lint_src_cmd ]))
