(* E-cache: the multi-level caching subsystem (lib/cache), measured.

   Two identical deployments — same seed, same dataset, same workload —
   differ only in the cache configuration: one runs with every level
   disabled (the uncached baseline), the other with the defaults
   (routing shortcuts, result caches, gossiped statistics). Two phases:

   - repeated skewed lookups from a few client origins: routing
     shortcuts should collapse the O(log n) greedy walk into a direct
     hop for popular regions (mean hops, messages, latency);
   - a repeated-query VQL workload from one origin: the result cache
     should absorb re-executed accesses and bind-join probes entirely
     (messages, latency, hit/miss counters), while the optimizer plans
     from gossiped statistics instead of the oracle.

   Writes BENCH_cache.json; `make bench-smoke` runs the small variant
   without touching the file. *)

module Rng = Unistore_util.Rng
module Metrics = Unistore_obs.Metrics
module Histogram = Unistore_obs.Histogram
module Json = Unistore_obs.Json
module Publications = Unistore_workload.Publications
module Keys = Unistore_triple.Keys
module Dht = Unistore_triple.Dht
module Triple = Unistore.Triple

let out_file = "BENCH_cache.json"

(* Skewed popularity: index ~ n * u^3 concentrates most draws on the
   first few keys, like repeated point queries for hot items. *)
let skewed_index rng n = int_of_float (float_of_int n *. (Rng.float rng ** 3.0))

type arm = {
  label : string;
  mean_hops : float;
  p95_hops : float;
  lookup_messages : int;
  lookup_latency_mean : float;
  shortcut_hits : int;
  shortcut_misses : int;
  query_messages : int;
  query_latency : float;
  result_hits : int;
  result_misses : int;
  bind_hits : int;
  bind_misses : int;
  gossip_messages : int;
  planned_cost : float;
}

let queries =
  [
    "SELECT ?n,?age WHERE { (?a,'name',?n) (?a,'age',?age) FILTER ?age > 30 }";
    "SELECT ?t,?y WHERE { (?p,'title',?t) (?p,'year',?y) FILTER ?y >= 2000 } ORDER BY ?y DESC \
     LIMIT 5";
    "SELECT ?n,?t WHERE { (?a,'name',?n) (?a,'has_published',?t) (?p,'title',?t) }";
  ]

let run_arm ~peers ~authors ~lookups ~repeats ~cached () =
  let cache = if cached then Unistore.default_cache_config else Unistore.no_cache in
  let store, ds = Common.build_pubs ~peers ~authors ~cache () in
  let m = Unistore.metrics store in
  (* Statistics gossip (cached arm only): sample + push until summaries
     have spread; its message cost is accounted separately below. *)
  Metrics.clear m;
  if cached then
    for _ = 1 to 4 do
      Unistore.gossip_stats_round store
    done;
  let gossip_messages = Metrics.counter m "net.sent" in
  (* Phase 1: skewed repeated lookups from a handful of clients. *)
  Metrics.clear m;
  let rng = Rng.create 4242 in
  let triples = Array.of_list ds.Publications.triples in
  let clients = [| 1; 9; 17; 25 |] in
  let dht = Unistore.dht store in
  for _ = 1 to lookups do
    let tr = triples.(skewed_index rng (Array.length triples)) in
    let origin = clients.(Rng.int rng (Array.length clients)) in
    let key = Keys.attr_value_key tr.Triple.attr tr.Triple.value in
    ignore (Common.await dht.Dht.sim (fun k -> dht.Dht.lookup ~origin ~key ~k))
  done;
  let hops = Metrics.histogram m "overlay.lookup.hops" in
  let lat = Metrics.histogram m "overlay.lookup.latency_ms" in
  let mean_hops = Histogram.mean hops in
  let p95_hops = Histogram.percentile hops 95.0 in
  let lookup_messages = Metrics.counter m "net.sent" in
  let lookup_latency_mean = Histogram.mean lat in
  let shortcut_hits = Metrics.counter m "cache.shortcut.hit" in
  let shortcut_misses = Metrics.counter m "cache.shortcut.miss" in
  (* Phase 2: a repeated VQL workload from one origin. *)
  Metrics.clear m;
  let t0 = Unistore.now store in
  let planned_cost = ref 0.0 in
  for round = 1 to repeats do
    List.iter
      (fun vql ->
        let r = Common.run_query_exn store ~origin:3 vql in
        if not r.Unistore.Report.complete then failwith "cache bench query incomplete";
        if round = 1 then
          planned_cost :=
            !planned_cost
            +. Unistore_qproc.Cost.objective
                 r.Unistore.Report.plan.Unistore_qproc.Physical.total_est)
      queries
  done;
  let query_messages = Metrics.counter m "net.sent" in
  let query_latency = Unistore.now store -. t0 in
  {
    label = (if cached then "cached" else "uncached");
    mean_hops;
    p95_hops;
    lookup_messages;
    lookup_latency_mean;
    shortcut_hits;
    shortcut_misses;
    query_messages;
    query_latency;
    result_hits = Metrics.counter m "cache.result.hit";
    result_misses = Metrics.counter m "cache.result.miss";
    bind_hits = Metrics.counter m "cache.bind.hit";
    bind_misses = Metrics.counter m "cache.bind.miss";
    gossip_messages;
    planned_cost = !planned_cost;
  }

let arm_json a =
  Json.Obj
    [
      ("label", Json.Str a.label);
      ( "lookups",
        Json.Obj
          [
            ("mean_hops", Json.Float a.mean_hops);
            ("p95_hops", Json.Float a.p95_hops);
            ("messages", Json.Int a.lookup_messages);
            ("mean_latency_ms", Json.Float a.lookup_latency_mean);
            ("shortcut_hits", Json.Int a.shortcut_hits);
            ("shortcut_misses", Json.Int a.shortcut_misses);
          ] );
      ( "queries",
        Json.Obj
          [
            ("messages", Json.Int a.query_messages);
            ("latency_ms", Json.Float a.query_latency);
            ("result_hits", Json.Int a.result_hits);
            ("result_misses", Json.Int a.result_misses);
            ("bind_hits", Json.Int a.bind_hits);
            ("bind_misses", Json.Int a.bind_misses);
            ("planned_cost_first_round", Json.Float a.planned_cost);
          ] );
      ("stats_gossip_messages", Json.Int a.gossip_messages);
    ]

let reduction ~uncached ~cached =
  if uncached <= 0.0 then 0.0 else (uncached -. cached) /. uncached

let measure ~peers ~authors ~lookups ~repeats =
  let uncached = run_arm ~peers ~authors ~lookups ~repeats ~cached:false () in
  let cached = run_arm ~peers ~authors ~lookups ~repeats ~cached:true () in
  let hops_red = reduction ~uncached:uncached.mean_hops ~cached:cached.mean_hops in
  let lookup_msg_red =
    reduction
      ~uncached:(float_of_int uncached.lookup_messages)
      ~cached:(float_of_int cached.lookup_messages)
  in
  let query_msg_red =
    reduction
      ~uncached:(float_of_int uncached.query_messages)
      ~cached:(float_of_int cached.query_messages)
  in
  Common.print_table
    [ "metric"; "uncached"; "cached"; "reduction" ]
    [
      [ "mean lookup hops"; Common.f2 uncached.mean_hops; Common.f2 cached.mean_hops;
        Common.pct hops_red ];
      [ "lookup messages"; Common.i uncached.lookup_messages; Common.i cached.lookup_messages;
        Common.pct lookup_msg_red ];
      [ "mean lookup latency (ms)"; Common.f1 uncached.lookup_latency_mean;
        Common.f1 cached.lookup_latency_mean;
        Common.pct
          (reduction ~uncached:uncached.lookup_latency_mean ~cached:cached.lookup_latency_mean) ];
      [ "query workload messages"; Common.i uncached.query_messages;
        Common.i cached.query_messages; Common.pct query_msg_red ];
      [ "query workload latency (ms)"; Common.f1 uncached.query_latency;
        Common.f1 cached.query_latency;
        Common.pct (reduction ~uncached:uncached.query_latency ~cached:cached.query_latency) ];
    ];
  Printf.printf
    "\ncached arm: %d/%d shortcut hits, %d result + %d bind-probe cache hits, %d gossip msgs\n"
    cached.shortcut_hits
    (cached.shortcut_hits + cached.shortcut_misses)
    cached.result_hits cached.bind_hits cached.gossip_messages;
  (uncached, cached, hops_red, lookup_msg_red, query_msg_red)

let run () =
  Common.section "E-cache: multi-level caching subsystem"
    "routing shortcuts beat the O(log n) hop bound for repeated traffic; result caches \
     absorb repeated accesses; the optimizer plans from gossiped statistics instead of a \
     statistics oracle";
  let peers, authors, lookups, repeats = (64, 40, 400, 5) in
  let uncached, cached, hops_red, lookup_msg_red, query_msg_red =
    measure ~peers ~authors ~lookups ~repeats
  in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ( "description",
          Json.Str
            "UniStore caching subsystem (lib/cache): identical deployments and workloads, \
             caching disabled vs enabled. Lookup phase: skewed repeated key lookups from 4 \
             client origins (routing-shortcut cache). Query phase: 3 VQL queries repeated 5 \
             times from one origin (result + bind caches, gossiped statistics). Regenerate \
             with `dune exec bench/main.exe -- cache`. See EXPERIMENTS.md, section \
             'Caching'." );
        ( "config",
          Json.Obj
            [
              ("peers", Json.Int peers);
              ("seed", Json.Int 42);
              ("latency_model", Json.Str "lan");
              ("workload", Json.Str (Printf.sprintf "publications(authors=%d)" authors));
              ("lookups", Json.Int lookups);
              ("query_repeats", Json.Int repeats);
            ] );
        ("uncached", arm_json uncached);
        ("cached", arm_json cached);
        ( "reductions",
          Json.Obj
            [
              ("mean_lookup_hops", Json.Float hops_red);
              ("lookup_messages", Json.Float lookup_msg_red);
              ("query_messages", Json.Float query_msg_red);
            ] );
      ]
  in
  let oc = open_out out_file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" out_file

(* Allocation guard for the memoised statistics sampler: on a fresh
   128-peer deployment, a second sampling pass right after the first
   finds every store unchanged and only restamps the memo, so it must
   allocate at most 5% of the first (cold) pass's minor words.
   Deterministic: counts words, never reads a clock. *)
let sampling_guard () =
  let store, _ = Common.build_pubs ~peers:128 () in
  let ov = Option.get (Unistore.pgrid store) in
  let pass () =
    let before = Gc.minor_words () in
    List.iter
      (fun nd -> ignore (Unistore_triple.Stat_sample.of_node ~now:0.0 nd))
      (Unistore_pgrid.Overlay.nodes ov);
    Gc.minor_words () -. before
  in
  let first = pass () in
  let second = pass () in
  Printf.printf "stats sampling: cold pass %.0f minor words, repeat pass %.0f (%.1f%%)\n" first
    second (100.0 *. second /. first);
  if second > 0.05 *. first then
    failwith "bench-smoke: a repeat statistics sampling pass re-scanned unchanged stores"

(* The CI smoke variant: small enough for a PR gate, asserts the caches
   actually engage, writes no file. *)
let run_smoke () =
  Common.section "E-cache (smoke)" "caching subsystem engages and pays for itself";
  sampling_guard ();
  let _, cached, hops_red, lookup_msg_red, query_msg_red =
    measure ~peers:32 ~authors:20 ~lookups:150 ~repeats:3
  in
  if cached.shortcut_hits = 0 then failwith "bench-smoke: no shortcut hits";
  if cached.result_hits = 0 then failwith "bench-smoke: no result-cache hits";
  if hops_red < 0.05 && lookup_msg_red < 0.05 && query_msg_red < 0.05 then
    failwith "bench-smoke: caching produced no measurable reduction";
  Printf.printf "\nbench-smoke: OK\n"
