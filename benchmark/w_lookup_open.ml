(* lookup_open: open-loop Poisson lookups through [Unistore.run_traffic]
   on 128 peers with a 3 ms per-message service time and Zipf(1.1) key
   popularity: the only workload with service queues and the balancing
   control loop. Per-message network, simulator and routing cost
   dominate the host time, with small stores and no query processor.
   Arrivals are simulator events, so the generator is never late, and
   latency runs from each request's due time.

   Two parts, each rate on a fresh deployment:
   - the capacity sweep: offered rates 400..1400 q/s with adaptive
     balancing (EWMA deadlines, boost replicas, serving-set rotation);
     capacity is the highest rate whose p99 stays within 1 s with no
     give-ups;
   - the reference run: 400 q/s over a longer window on the static
     arm, for latency and messages per lookup. With adaptive balancing
     a fixed-rate tail is bimodal — boosts spawn or they do not,
     depending on the seed — so it would gate nothing.
   The traced pass runs the adaptive arm at 800 q/s, where the boosts,
   hot serves and queue waits that set capacity show. *)

module Rng = Unistore_util.Rng
module Publications = Unistore_workload.Publications

let peers = 128
let authors = 150
let sweep = [ 400.0; 600.0; 800.0; 1000.0; 1200.0; 1400.0 ]
let sweep_ms = 12_000.0
let reference = 400.0
let reference_ms = 30_000.0
let traced_rate = 800.0
let warmup_ms = 2_000.0
let slo_ms = 1000.0

type point = {
  rate : float;
  report : Unistore.traffic_report;
  phase : Deploy.phase;
  setup : float;
  layers : (string * float) list;
  bytes : int;  (* network bytes sent during the run *)
  heap_mb : float;  (* reference run only *)
}

let run_rate (ctx : Deploy.ctx) ?(heap = false) ~rate ~duration_ms ~balance () =
  (* The same dataset at every rate: a fresh generator from the seed. *)
  let rng = Rng.create ctx.Deploy.seed in
  let data_rng = Rng.split rng and store_rng = Rng.split rng in
  let traffic_seed = Rng.int rng 1_000_000 in
  let (ds, t), setup =
    Deploy.cpu (fun () ->
        let ds = Deploy.generate data_rng ~authors:(Deploy.scaled ctx authors) in
        let t =
          Deploy.create ~sample_keys:(Publications.sample_keys ds)
            { Unistore.default_config with Unistore.peers }
        in
        ignore (Deploy.load t ds.Publications.tuples);
        (ds, t))
  in
  let keys = List.sort_uniq String.compare (Publications.sample_keys ds) in
  let cfg =
    {
      Unistore.default_traffic_config with
      Unistore.scenario = Unistore.Steady_load;
      arrival_rate = rate;
      traffic_duration_ms = duration_ms *. ctx.Deploy.scale;
      traffic_warmup_ms = warmup_ms *. ctx.Deploy.scale;
      traffic_seed;
      balance;
    }
  in
  Unistore.reset_metrics t;
  if ctx.Deploy.traced then begin
    Deploy.watch_pending t;
    ignore (Unistore.start_trace t)
  end;
  let report, phase =
    Deploy.phase t (fun () ->
        Span.record "core.run_traffic" (fun () -> Unistore.run_traffic t ~keys cfg))
  in
  Unistore.stop_trace t;
  let heap_mb = if heap then Deploy.live_heap_mb t else 0.0 in
  let layers =
    if ctx.Deploy.traced then
      Layers.common t phase ~ops:report.Unistore.engine.Unistore.Traffic.offered
        ~data_items:(List.length ds.Publications.triples) ~rng:store_rng ~storm_events:1_000_000
    else []
  in
  { rate; report; phase; setup; layers; bytes = Layers.counter t "net.bytes.sent"; heap_mb }

let engine p = p.report.Unistore.engine

let meets_slo p =
  (engine p).Unistore.Traffic.giveups = 0 && (engine p).Unistore.Traffic.lat_p99_ms <= slo_ms

(* The highest offered rate whose p99 stays within the SLO with no
   give-ups, interpolated on log p99 between the last rate of the
   passing prefix and the first failing one (extrapolated from the
   lowest rate when none passes; the top rate when all do). *)
let capacity points =
  let p99 p = Float.max 1e-9 (engine p).Unistore.Traffic.lat_p99_ms in
  let rec go prev = function
    | [] -> ( match prev with Some p -> p.rate | None -> 0.0)
    | p :: rest when meets_slo p -> go (Some p) rest
    | p :: _ -> (
      match prev with
      | None -> p.rate *. slo_ms /. p99 p
      | Some q ->
        if p99 p <= slo_ms then q.rate
        else
          q.rate
          +. (p.rate -. q.rate) *. (log slo_ms -. log (p99 q)) /. (log (p99 p) -. log (p99 q)))
  in
  go None points

let print_point p =
  let e = engine p in
  Printf.printf "lookup_open %6.0f q/s: p50 %8.2f ms  p99 %8.2f ms  give-ups %d  digest %s\n" p.rate
    e.Unistore.Traffic.lat_p50_ms e.Unistore.Traffic.lat_p99_ms e.Unistore.Traffic.giveups
    p.report.Unistore.results_digest

(* The sweep stops at the first rate that misses the SLO: the rates
   above it cannot change the capacity. *)
let rec sweep_from ctx = function
  | [] -> []
  | rate :: rest ->
    let p = run_rate ctx ~rate ~duration_ms:sweep_ms ~balance:Unistore.default_balance_config () in
    if meets_slo p then p :: sweep_from ctx rest else [ p ]

let run (ctx : Deploy.ctx) =
  let points, r =
    if ctx.Deploy.e2e then
      ( sweep_from ctx sweep,
        run_rate ctx ~heap:true ~rate:reference ~duration_ms:reference_ms
          ~balance:Unistore.no_balancing () )
    else
      ( [],
        run_rate ctx ~heap:true ~rate:traced_rate ~duration_ms:sweep_ms
          ~balance:Unistore.default_balance_config () )
  in
  let all = points @ [ r ] in
  List.iter print_point all;
  let e = engine r in
  let offered = e.Unistore.Traffic.offered in
  let sim =
    [
      ("msgs_per_op", Metric.ratio_i r.phase.Deploy.msgs offered);
      ("bytes_per_op", Metric.ratio_i r.bytes offered);
      ("sim_p50_ms", e.Unistore.Traffic.lat_p50_ms);
      ("sim_p99_ms", e.Unistore.Traffic.lat_p99_ms);
      ("sim_ops_per_s", capacity points);
    ]
  in
  let lost p =
    let e = engine p in
    e.Unistore.Traffic.measured - e.Unistore.Traffic.ok - e.Unistore.Traffic.giveups
  in
  {
    Deploy.setups = List.map (fun p -> p.setup) all;
    ops = List.fold_left (fun acc p -> acc + (engine p).Unistore.Traffic.offered) 0 all;
    timed_cpu = List.fold_left (fun acc p -> acc +. p.phase.Deploy.cpu_s) 0.0 all;
    sim;
    heap_mb = r.heap_mb;
    lat = [];
    layers = r.layers;
    attempted = e.Unistore.Traffic.measured;
    failed = e.Unistore.Traffic.giveups + lost r;
    digest =
      Deploy.digest_of
        (List.map (fun p -> Printf.sprintf "%g %s" p.rate p.report.Unistore.results_digest) all
        @ Deploy.fmt_metrics sim);
  }
