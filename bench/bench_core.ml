(* CORE: the measured performance baseline, exported as BENCH_core.json.

   The ROADMAP's north star ("fast as the hardware allows") needs a
   number to improve against; this experiment distills the harness into
   four machine-readable series — routing hop counts, range-query cost,
   end-to-end query latency (including the paper's example skyline
   query), and per-operator throughput — all read back from the
   observability layer (lib/obs) rather than ad-hoc accumulators, so the
   baseline exercises the same metrics pipeline production code uses.

   Every later optimisation PR regenerates this file (make
   bench-baseline) and diffs it; EXPERIMENTS.md "Baseline numbers"
   documents each field. *)

module Rng = Unistore_util.Rng
module Histogram = Unistore_obs.Histogram
module Metrics = Unistore_obs.Metrics
module Json = Unistore_obs.Json
module Profile = Unistore_obs.Profile
module Publications = Unistore_workload.Publications
module Keys = Unistore_triple.Keys
module Dht = Unistore_triple.Dht
module Value = Unistore.Value
module Triple = Unistore.Triple

let out_file = "BENCH_core.json"

let paper_query =
  "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) \
   (?a,'num_of_pubs',?cnt) (?a,'has_published',?title) (?p,'title',?title) \
   (?p,'published_in',?conf) (?c,'confname',?conf) (?c,'series',?sr) \
   FILTER edist(?sr,'ICDE')<3 } ORDER BY SKYLINE OF ?age MIN, ?cnt MAX"

let histo_json m name =
  let h = Metrics.histogram m name in
  Json.Obj
    [
      ("mean", Json.Float (Histogram.mean h));
      ("p50", Json.Float (Histogram.percentile h 50.0));
      ("p95", Json.Float (Histogram.percentile h 95.0));
      ("p99", Json.Float (Histogram.percentile h 99.0));
      ("max", Json.Float (Histogram.max_value h));
    ]

(* ------------------------------------------------------------------ *)
(* 1. Routing: lookup hops and latency vs. overlay size                *)

let routing_at peers =
  let store, ds = Common.build_pubs ~peers ~authors:40 () in
  let m = Unistore.metrics store in
  Metrics.clear m;
  let probe_rng = Rng.create (1000 + peers) in
  let probes = Rng.sample probe_rng 120 ds.Publications.triples in
  let dht = Unistore.dht store in
  List.iter
    (fun (tr : Triple.t) ->
      let origin = Rng.int probe_rng peers in
      let key = Keys.attr_value_key tr.Triple.attr tr.Triple.value in
      ignore (Common.await dht.Dht.sim (fun k -> dht.Dht.lookup ~origin ~key ~k)))
    probes;
  let lookups = List.length probes in
  Json.Obj
    [
      ("peers", Json.Int peers);
      ("lookups", Json.Int lookups);
      ("complete", Json.Int (Metrics.counter m "overlay.lookup.ok"));
      ("hops", histo_json m "overlay.lookup.hops");
      ("latency_ms", histo_json m "overlay.lookup.latency_ms");
      ( "msgs_per_lookup",
        Json.Float (float_of_int (Metrics.counter m "net.sent") /. float_of_int lookups) );
    ]

(* ------------------------------------------------------------------ *)
(* 2. Range queries: cost vs. selectivity (shower strategy)            *)

let range_cost store (label, lo, hi) =
  let m = Unistore.metrics store in
  Metrics.clear m;
  let vql =
    Printf.sprintf "SELECT ?p WHERE { (?p,'year',?y) FILTER ?y >= %d FILTER ?y <= %d }" lo hi
  in
  let r = Common.run_query_exn store vql in
  Json.Obj
    [
      ("selectivity", Json.Str label);
      ("vql", Json.Str vql);
      ("rows", Json.Int (List.length r.Unistore.Report.rows));
      ("messages", Json.Int r.Unistore.Report.messages);
      ("latency_ms", Json.Float r.Unistore.Report.latency);
      ("complete", Json.Bool r.Unistore.Report.complete);
      ("fanout", histo_json m "overlay.range.fanout");
    ]

(* ------------------------------------------------------------------ *)
(* 3. End-to-end query latency (the paper's workload shapes)           *)

let query_latency store ds =
  (* A value known to exist, for the point-lookup shape. *)
  let some_name =
    List.find_map
      (fun (tr : Triple.t) ->
        if String.equal tr.Triple.attr "name" then Value.as_string tr.Triple.value else None)
      ds.Publications.triples
    |> Option.get
  in
  let shapes =
    [
      ("point", Printf.sprintf "SELECT ?a WHERE { (?a,'name','%s') }" some_name, Unistore.Centralized);
      ( "join3",
        "SELECT ?n,?t WHERE { (?a,'name',?n) (?a,'has_published',?t) (?p,'title',?t) }",
        Unistore.Centralized );
      ("skyline_paper", paper_query, Unistore.Centralized);
      ("skyline_paper_mutant", paper_query, Unistore.Mutant);
    ]
  in
  List.map
    (fun (name, vql, strategy) ->
      match Unistore.query store ~strategy vql with
      | Error e -> failwith (name ^ ": " ^ e)
      | Ok r ->
        Json.Obj
          [
            ("name", Json.Str name);
            ("strategy", Json.Str (Format.asprintf "%a" Unistore.Report.pp_strategy strategy));
            ("rows", Json.Int (List.length r.Unistore.Report.rows));
            ("messages", Json.Int r.Unistore.Report.messages);
            ("latency_ms", Json.Float r.Unistore.Report.latency);
            ("bytes_shipped", Json.Int r.Unistore.Report.bytes_shipped);
            ("complete", Json.Bool r.Unistore.Report.complete);
          ])
    shapes

(* ------------------------------------------------------------------ *)
(* 4. Per-operator throughput, from the paper query's profile          *)

(* Profiled on an uncached deployment: where an earlier run of the same
   query has warmed the result cache, every step is a cache hit that
   reads 0 messages / 0 ms and measures nothing. *)
let operator_throughput store =
  let r = Common.run_query_exn store paper_query in
  let profile = Unistore.profile ~query:paper_query r in
  if List.for_all (fun (o : Profile.op) -> o.Profile.messages = 0) profile.Profile.ops then
    failwith "core bench: no operator of the paper query sent a message";
  List.map
    (fun (o : Profile.op) ->
      Json.Obj
        [
          ("operator", Json.Str o.Profile.label);
          ("access", Json.Str o.Profile.access);
          ("rows_in", Json.Int o.Profile.rows_in);
          ("rows_out", Json.Int o.Profile.rows_out);
          ("messages", Json.Int o.Profile.messages);
          ("latency_ms", Json.Float o.Profile.latency_ms);
          ( "rows_per_sim_s",
            if o.Profile.latency_ms > 0.0 then
              Json.Float (float_of_int o.Profile.rows_out /. (o.Profile.latency_ms /. 1000.0))
            else Json.Null );
        ])
    profile.Profile.ops

let run () =
  Common.section "CORE: performance baseline"
    "the platform makes results \"traceable, analyzable and (in limits) repeatable\" \
     (section 3) — this distills the harness into the machine-readable baseline \
     every optimisation PR is measured against";
  let routing = List.map routing_at [ 16; 64; 256 ] in
  Printf.printf "routing: lookup hop/latency percentiles at 16/64/256 peers\n";
  let store, ds = Common.build_pubs ~peers:64 ~authors:40 () in
  (* Warm up statistics gossip so the query series measures the default
     production path (plans built from gossiped statistics), matching
     the CLI; the warm-up messages stay outside the measured windows. *)
  for _ = 1 to 4 do
    Unistore.gossip_stats_round store
  done;
  (* The range series measures shower cost, so it runs on an uncached
     deployment: with caching on, a gossiped-statistics tie can flip the
     plan to a whole-attribute scan whose later windows are result-cache
     hits (0 messages) — real behavior, but measured by BENCH_cache.json,
     not by this series. *)
  let rstore, _ = Common.build_pubs ~peers:64 ~authors:40 ~cache:Unistore.no_cache () in
  let ranges =
    List.map (range_cost rstore)
      [ ("narrow (1 year)", 2004, 2004); ("half (4 years)", 2001, 2004); ("full (all years)", 1990, 2010) ]
  in
  Printf.printf "range: shower cost at three selectivities (64 peers)\n";
  Unistore.reset_metrics store;
  let queries = query_latency store ds in
  let messages_by_kind =
    List.filter_map
      (fun (k, v) ->
        if String.length k > 9 && String.sub k 0 9 = "net.sent." then
          Some (String.sub k 9 (String.length k - 9), Json.Int v)
        else None)
      (Metrics.counters (Unistore.metrics store))
  in
  Printf.printf "queries: point / 3-way join / paper skyline (centralized + mutant)\n";
  let operators = operator_throughput rstore in
  Printf.printf "operators: per-step rows/messages/latency of the paper query\n";
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ( "description",
          Json.Str
            "UniStore performance baseline: simulated-network cost of routing, range \
             queries, end-to-end VQL queries and physical operators. Regenerate with \
             `make bench-baseline` (= dune exec bench/main.exe -- core). All times are \
             simulated ms under the LAN latency model; messages are what a deployment \
             pays for. See EXPERIMENTS.md, section 'Baseline numbers'." );
        ( "config",
          Json.Obj
            [
              ("seed", Json.Int 42);
              ("latency_model", Json.Str "lan");
              ("workload", Json.Str "publications(authors=40, typo_rate=0.1)");
              ("replication", Json.Int 2);
            ] );
        ("routing", Json.Arr routing);
        ("range", Json.Arr ranges);
        ("queries", Json.Arr queries);
        ("messages_by_kind", Json.Obj messages_by_kind);
        ("operators", Json.Arr operators);
      ]
  in
  let oc = open_out out_file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" out_file
