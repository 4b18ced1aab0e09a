(* Experiment harness: regenerates every evaluation result of the
   UniStore reproduction (see DESIGN.md section 4 for the experiment
   index and EXPERIMENTS.md for paper-vs-measured records).

   Usage:
     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe -- e2 e6   # run selected experiments *)

let experiments =
  [
    ("core", "CORE: performance baseline -> BENCH_core.json", Bench_core.run);
    ("fig2", "E1: Fig. 2 triple placement", Exp_fig2.run);
    ("e2", "E2: logarithmic lookup scaling", Exp_scaling.run);
    ("e3", "E3: 400 peers, PlanetLab latency", Exp_planetlab.run);
    ("e4", "E4: 1024-peer deployment", Exp_thousand.run);
    ("e5", "E5: load balancing under skew", Exp_loadbal.run);
    ("e6", "E6: range queries, P-Grid vs Chord+trie", Exp_range.run);
    ("e7", "E7: q-gram similarity index", Exp_simsel.run);
    ("e8", "E8: physical operators + cost model", Exp_operators.run);
    ("e9", "E9: mutant vs centralized execution", Exp_mutant.run);
    ("e10", "E10: failures and loose-consistency updates", Exp_churn.run);
    ("e11", "E11: the example skyline query", Exp_skyline.run);
    ("e12", "E12: schema mappings", Exp_mappings.run);
    ("e13", "E13: routing techniques (random vs proximity)", Exp_routing.run);
    ("e14", "E14: decentralized construction + merging", Exp_bootstrap.run);
    ("cache", "E-cache: multi-level caching, cached vs uncached -> BENCH_cache.json", Exp_cache.run);
    ("cache-smoke", "E-cache smoke variant (CI gate, no file output)", Exp_cache.run_smoke);
    ("churn", "E-churn: query robustness under churn -> BENCH_churn.json", Exp_fault.run);
    ("churn-smoke", "E-churn smoke variant (CI gate, no file output)", Exp_fault.run_smoke);
    ("scale", "E-scale: kernel throughput sweep to 100k+ peers -> BENCH_scale.json", Exp_scale.run);
    ("scale-smoke", "E-scale smoke variant (CI gate, no file output)", Exp_scale.run_smoke);
    ("traffic", "E-traffic: heavy traffic, adaptive balancing vs static -> BENCH_traffic.json", Exp_traffic.run);
    ("traffic-smoke", "E-traffic smoke variant (CI gate, no file output)", Exp_traffic.run_smoke);
    ("rank", "E-rank: ranking/similarity, P-Grid vs Chord head-to-head -> BENCH_rank.json", Exp_rank.run);
    ("rank-smoke", "E-rank smoke variant (CI gate, no file output)", Exp_rank.run_smoke);
    ("store", "E-store: storage-backend shootout, hash vs log vs packed -> BENCH_store.json", Exp_store.run);
    ("store-smoke", "E-store smoke variant (CI gate, no file output)", Exp_store.run_smoke);
    ("micro", "Bechamel microbenchmarks", Micro.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map (fun (n, _, _) -> n) experiments
  in
  Printf.printf "UniStore experiment harness (%d experiments)\n" (List.length requested);
  Printf.printf "All times are simulated network time unless stated otherwise.\n";
  let t0 = Sys.time () in
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) experiments with
      | Some (_, _, run) -> run ()
      | None ->
        Printf.printf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map (fun (n, _, _) -> n) experiments)))
    requested;
  Printf.printf "\n[harness done in %.1f real seconds]\n" (Sys.time () -. t0)
