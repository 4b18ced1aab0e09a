(* Heavy-traffic machinery tests: the latency-model distributions, the
   per-peer service-queue model in Net (FIFO order, seeded determinism,
   Little's-law sanity), the open-loop traffic engine (schedules,
   arrival processes, Zipf hot keys, windowed accounting) and the
   facade-level guarantee that a traffic run replays byte-identically —
   even with fault injection active. *)

module Rng = Unistore_util.Rng
module Stats = Unistore_util.Stats
module Sim = Unistore_sim.Sim
module Latency = Unistore_sim.Latency
module Net = Unistore_sim.Net
module Engine = Unistore_traffic.Engine
module Schedule = Unistore_traffic.Schedule
module Arrivals = Unistore_traffic.Arrivals
module Hotkeys = Unistore_traffic.Hotkeys
module Publications = Unistore_workload.Publications

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_close ~tol name expected actual =
  let rel = Float.abs (actual -. expected) /. Float.max 1e-9 (Float.abs expected) in
  if rel > tol then
    Alcotest.failf "%s: expected ~%.4f, got %.4f (rel err %.3f > %.3f)" name expected actual
      rel tol

(* ------------------------------------------------------------------ *)
(* Latency distributions                                               *)

let samples model ~n ~seed =
  let rng = Rng.create seed in
  let lat = Latency.create model ~n:16 ~rng in
  List.init n (fun i -> Latency.sample lat ~src:(i mod 16) ~dst:((i + 7) mod 16))

let test_latency_constant () =
  List.iter
    (fun d -> Alcotest.check (Alcotest.float 0.0) "constant sample" 5.5 d)
    (samples (Latency.Constant 5.5) ~n:100 ~seed:1);
  let rng = Rng.create 2 in
  let lat = Latency.create (Latency.Constant 5.5) ~n:4 ~rng in
  Alcotest.check (Alcotest.float 0.0) "constant expected" 5.5 (Latency.expected lat)

let test_latency_uniform () =
  let xs = samples (Latency.Uniform (2.0, 6.0)) ~n:20_000 ~seed:3 in
  List.iter
    (fun x -> if x < 2.0 || x > 6.0 then Alcotest.failf "uniform sample %.3f out of [2,6]" x)
    xs;
  check_close ~tol:0.05 "uniform empirical mean" 4.0 (Stats.mean xs)

let test_latency_lan () =
  let xs = samples Latency.Lan ~n:20_000 ~seed:4 in
  List.iter
    (fun x -> if x < 0.5 || x > 2.0 then Alcotest.failf "lan sample %.3f out of [0.5,2]" x)
    xs;
  check_close ~tol:0.05 "lan empirical mean" 1.25 (Stats.mean xs);
  let rng = Rng.create 5 in
  let lat = Latency.create Latency.Lan ~n:4 ~rng in
  Alcotest.check (Alcotest.float 1e-9) "lan expected" 1.25 (Latency.expected lat)

let test_latency_planetlab () =
  (* Expected one-way latency: 20ms floor + mean unit-square pair
     distance (~0.5214) * 140ms, times the log-normal jitter mean
     exp(sigma^2/2). The empirical mean over random peer pairs converges
     loosely (the 16 coords are one draw), so the tolerance is wide. *)
  let rng = Rng.create 6 in
  let lat = Latency.create Latency.Planetlab ~n:64 ~rng in
  let expected = (20.0 +. (0.5214 *. 140.0)) *. exp (0.35 *. 0.35 /. 2.0) in
  Alcotest.check (Alcotest.float 1e-6) "planetlab expected formula" expected
    (Latency.expected lat);
  let xs =
    List.init 40_000 (fun i -> Latency.sample lat ~src:(i mod 64) ~dst:(i * 7 mod 64))
  in
  List.iter (fun x -> if x < 0.0 then Alcotest.failf "negative latency %.3f" x) xs;
  check_close ~tol:0.25 "planetlab empirical mean" expected (Stats.mean xs)

let test_latency_determinism () =
  List.iter
    (fun model ->
      let a = samples model ~n:500 ~seed:42 in
      let b = samples model ~n:500 ~seed:42 in
      if not (List.for_all2 feq a b) then Alcotest.fail "same seed, different latency stream")
    [ Latency.Constant 3.0; Latency.Uniform (1.0, 9.0); Latency.Lan; Latency.Planetlab ]

(* ------------------------------------------------------------------ *)
(* The per-peer service queue in Net                                   *)

(* A two-peer rig with constant link latency and a service time at peer
   1; returns the handler-invocation timestamps at peer 1 in order. *)
let queue_rig ~seed ~svc_ms ~sends =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let latency = Latency.create (Latency.Constant 1.0) ~n:2 ~rng in
  let net = Net.create sim ~latency ~rng () in
  let deliveries = ref [] in
  Net.register net 0 (fun ~src:_ (_ : int) -> ());
  Net.register net 1 (fun ~src:_ (tag : int) ->
      deliveries := (tag, Sim.now sim) :: !deliveries);
  Net.set_service net 1 ~ms:svc_ms;
  List.iter (fun tag -> Net.send net ~src:0 ~dst:1 tag) sends;
  Sim.run_all sim;
  List.rev !deliveries

let test_queue_fifo_spacing () =
  (* Five messages sent at t=0 all arrive at t=1 (constant link) and
     then serialize: handler calls at 3,5,7,9,11 in send order. *)
  let ds = queue_rig ~seed:7 ~svc_ms:2.0 ~sends:[ 10; 11; 12; 13; 14 ] in
  let expect = [ (10, 3.0); (11, 5.0); (12, 7.0); (13, 9.0); (14, 11.0) ] in
  List.iter2
    (fun (etag, et) (tag, t) ->
      Alcotest.(check int) "fifo order" etag tag;
      Alcotest.check (Alcotest.float 1e-9) "service slot time" et t)
    expect ds

let test_queue_disabled_is_transparent () =
  (* svc_ms = 0: the classic infinite-capacity peer — all deliveries at
     link latency, no serialization. *)
  let ds = queue_rig ~seed:8 ~svc_ms:0.0 ~sends:[ 1; 2; 3 ] in
  List.iter (fun (_, t) -> Alcotest.check (Alcotest.float 1e-9) "no wait" 1.0 t) ds

let test_queue_determinism () =
  let sends = List.init 200 (fun i -> i) in
  let a = queue_rig ~seed:99 ~svc_ms:1.5 ~sends in
  let b = queue_rig ~seed:99 ~svc_ms:1.5 ~sends in
  if not (List.for_all2 (fun (ta, xa) (tb, xb) -> ta = tb && feq xa xb) a b) then
    Alcotest.fail "same seed, different queue schedule"

let test_queue_littles_law () =
  (* Open-loop Poisson arrivals (rate 0.4/ms) into a single server with
     a 2ms deterministic service time (rho = 0.8, M/D/1). Little's law
     ties the time-average number in system L to the arrival rate and
     the mean sojourn W: L = lambda * W. Both sides are measured
     independently — L by sampling [queue_depth] on a 1ms clock, W from
     per-message send-to-handler times (minus the 0 link latency) — so
     agreement within sampling noise is a real consistency check of the
     queue bookkeeping, not a tautology. *)
  let sim = Sim.create () in
  let rng = Rng.create 1234 in
  let latency = Latency.create (Latency.Constant 0.0) ~n:2 ~rng in
  let net = Net.create sim ~latency ~rng () in
  let arrival_rng = Rng.split rng in
  let horizon = 30_000.0 in
  let sojourns = ref [] in
  let sent_at : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  Net.register net 0 (fun ~src:_ (_ : int) -> ());
  Net.register net 1 (fun ~src:_ (tag : int) ->
      match Hashtbl.find_opt sent_at tag with
      | Some t0 -> sojourns := (Sim.now sim -. t0) :: !sojourns
      | None -> Alcotest.fail "delivery for a message never sent");
  Net.set_service net 1 ~ms:2.0;
  let n_sent = ref 0 in
  let rec arrive () =
    if Sim.now sim < horizon then begin
      let tag = !n_sent in
      incr n_sent;
      Hashtbl.replace sent_at tag (Sim.now sim);
      Net.send net ~src:0 ~dst:1 tag;
      Sim.schedule sim ~delay:(Rng.exponential arrival_rng ~mean:2.5) arrive
    end
  in
  let depth_samples = ref [] in
  let rec probe () =
    if Sim.now sim < horizon then begin
      depth_samples := float_of_int (Net.queue_depth net 1) :: !depth_samples;
      Sim.schedule sim ~delay:1.0 probe
    end
  in
  Sim.schedule sim ~delay:0.0 arrive;
  Sim.schedule sim ~delay:0.5 probe;
  Sim.run_all sim;
  let lambda = float_of_int !n_sent /. horizon in
  let w = Stats.mean !sojourns in
  let l = Stats.mean !depth_samples in
  check_close ~tol:0.3 "Little's law: L vs lambda*W" (lambda *. w) l;
  (* And the M/D/1 prediction for the mean sojourn: s + rho*s/(2(1-rho)). *)
  let rho = lambda *. 2.0 in
  check_close ~tol:0.3 "M/D/1 mean sojourn" (2.0 +. (rho *. 2.0 /. (2.0 *. (1.0 -. rho)))) w

(* ------------------------------------------------------------------ *)
(* Schedules, arrivals, hot keys                                       *)

let test_schedule_factors () =
  let f = Alcotest.float 1e-9 in
  Alcotest.check f "steady" 1.0 (Schedule.factor Schedule.Steady ~t:123.0);
  let flash = Schedule.Flash { peak = 9.0; at_ms = 100.0; ramp_ms = 50.0; hold_ms = 200.0 } in
  Alcotest.check f "flash before" 1.0 (Schedule.factor flash ~t:99.0);
  Alcotest.check f "flash mid-ramp" 5.0 (Schedule.factor flash ~t:125.0);
  Alcotest.check f "flash hold" 9.0 (Schedule.factor flash ~t:200.0);
  Alcotest.check f "flash mid-rampdown" 5.0 (Schedule.factor flash ~t:375.0);
  Alcotest.check f "flash after" 1.0 (Schedule.factor flash ~t:401.0);
  let diurnal = Schedule.Diurnal { period_ms = 1000.0; trough = 0.4 } in
  Alcotest.check f "diurnal start at midpoint" 0.7 (Schedule.factor diurnal ~t:0.0);
  Alcotest.check f "diurnal peak" 1.0 (Schedule.factor diurnal ~t:250.0);
  Alcotest.check f "diurnal trough" 0.4 (Schedule.factor diurnal ~t:750.0)

let test_arrivals () =
  let rng = Rng.create 11 in
  (* Deterministic: the gap is exactly 1/rate and consumes no RNG. *)
  let g1 = Arrivals.gap Arrivals.Deterministic rng ~rate_per_ms:0.25 in
  Alcotest.check (Alcotest.float 1e-9) "deterministic gap" 4.0 g1;
  (* Poisson: exponential gaps with mean 1/rate. *)
  let gaps = List.init 40_000 (fun _ -> Arrivals.gap Arrivals.Poisson rng ~rate_per_ms:0.5) in
  List.iter (fun g -> if g < 0.0 then Alcotest.fail "negative gap") gaps;
  check_close ~tol:0.05 "poisson mean gap" 2.0 (Stats.mean gaps);
  (match Arrivals.gap Arrivals.Poisson rng ~rate_per_ms:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rate 0 accepted");
  (* Same seed, same gap stream. *)
  let stream seed =
    let rng = Rng.create seed in
    List.init 100 (fun _ -> Arrivals.gap Arrivals.Poisson rng ~rate_per_ms:1.0)
  in
  if not (List.for_all2 feq (stream 5) (stream 5)) then
    Alcotest.fail "same seed, different arrival stream"

let test_hotkeys () =
  let keys = [| "delta"; "alpha"; "charlie"; "bravo" |] in
  let hk = Hotkeys.create ~keys ~s:1.2 in
  Alcotest.(check int) "population size" 4 (Hotkeys.n hk);
  let rng = Rng.create 21 in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  for _ = 1 to 20_000 do
    let k = Hotkeys.sample hk rng in
    if not (Array.exists (String.equal k) keys) then Alcotest.failf "alien key %s" k;
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let count k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  (* Ranking is over the sorted key population: "alpha" is rank 1. *)
  if count "alpha" <= count "bravo" || count "bravo" <= count "delta" then
    Alcotest.failf "zipf ranking not lexicographic: alpha=%d bravo=%d delta=%d" (count "alpha")
      (count "bravo") (count "delta");
  (* Head mass is monotone and normalizes to 1 over the whole set. *)
  if Hotkeys.head_mass hk 1 >= Hotkeys.head_mass hk 3 then Alcotest.fail "head mass not monotone";
  check_close ~tol:1e-6 "head mass totals 1" 1.0 (Hotkeys.head_mass hk 4);
  (* Same seed, same key stream. *)
  let stream seed =
    let rng = Rng.create seed in
    List.init 200 (fun _ -> Hotkeys.sample hk rng)
  in
  if not (List.for_all2 String.equal (stream 77) (stream 77)) then
    Alcotest.fail "same seed, different key stream"

(* ------------------------------------------------------------------ *)
(* The open-loop engine                                                *)

(* Drive the engine against a stub system that completes every request
   after a fixed simulated delay; returns the issue log and report. *)
let engine_run ?(completion_delay = 5.0) ?(duration = 2_000.0) ?(warmup = 200.0) ~seed () =
  let sim = Sim.create () in
  let issued = ref [] in
  let issue ~seq ~origin ~key ~k =
    issued := (seq, origin, key, Sim.now sim) :: !issued;
    Sim.schedule sim ~delay:completion_delay (fun () -> k { Engine.ok = true; items = 1 })
  in
  let cfg =
    {
      Engine.default with
      Engine.rate_per_s = 300.0;
      duration_ms = duration;
      warmup_ms = warmup;
      seed;
      control_interval_ms = 0.0;
    }
  in
  let report =
    Engine.run ~sim ~origins:[| 3; 5; 8 |]
      ~hotkeys:(Hotkeys.create ~keys:[| "a"; "b"; "c"; "d" |] ~s:1.0)
      ~issue cfg
  in
  (List.rev !issued, report)

let test_engine_offered_stream_deterministic () =
  (* The offered workload — seq, origin, key, instant — is a pure
     function of the engine seed: byte-identical across runs, and
     independent of how fast the system answers (that is what makes
     two-arm comparisons sound). *)
  let log1, r1 = engine_run ~seed:31 () in
  let log2, r2 = engine_run ~seed:31 () in
  let log3, _ = engine_run ~seed:31 ~completion_delay:500.0 () in
  Alcotest.(check int) "same offered count" r1.Engine.offered r2.Engine.offered;
  let same (s1, o1, k1, t1) (s2, o2, k2, t2) =
    s1 = s2 && o1 = o2 && String.equal k1 k2 && feq t1 t2
  in
  if not (List.for_all2 same log1 log2) then Alcotest.fail "same seed, different request stream";
  if not (List.for_all2 same log1 log3) then
    Alcotest.fail "request stream depends on system speed (closed-loop leak)";
  let log4, _ = engine_run ~seed:32 () in
  if List.length log4 = List.length log1 && List.for_all2 same log1 log4 then
    Alcotest.fail "different seeds replayed the same stream"

let test_engine_windowed_accounting () =
  let _, r = engine_run ~seed:33 ~completion_delay:5.0 () in
  Alcotest.(check int) "no giveups" 0 r.Engine.giveups;
  if r.Engine.measured >= r.Engine.offered then
    Alcotest.fail "warmup requests leaked into the measurement window";
  Alcotest.(check int) "every measured request completed" r.Engine.measured r.Engine.ok;
  if r.Engine.served_in_window > r.Engine.ok then Alcotest.fail "in-window exceeds completions";
  Alcotest.check (Alcotest.float 1e-6) "fixed completion delay is every percentile" 5.0
    r.Engine.lat_p50_ms;
  Alcotest.check (Alcotest.float 1e-6) "p99 of a constant" 5.0 r.Engine.lat_p99_ms;
  (* A system slower than the whole stream serves nothing in-window. *)
  let _, late = engine_run ~seed:33 ~completion_delay:1.0e6 () in
  Alcotest.(check int) "all completions landed after the stream" 0 late.Engine.served_in_window;
  Alcotest.check (Alcotest.float 1e-9) "throughput is windowed" 0.0 late.Engine.throughput_qps;
  Alcotest.(check int) "late is not lost" late.Engine.measured late.Engine.ok

(* ------------------------------------------------------------------ *)
(* Facade: byte-identical traffic replay, with and without faults      *)

let build_store ?(peers = 32) ?(authors = 12) () =
  let rng = Rng.create 43 in
  let ds =
    Publications.generate rng
      { Publications.default_params with n_authors = authors; typo_rate = 0.1 }
  in
  let store =
    Unistore.create
      ~sample_keys:(Publications.sample_keys ds)
      { Unistore.default_config with peers; seed = 42 }
  in
  ignore (Unistore.load store ds.Publications.tuples);
  Unistore.set_stats_of_triples store ds.Publications.triples;
  Unistore.settle store;
  (store, List.sort_uniq String.compare (Publications.sample_keys ds))

let traffic_cfg =
  {
    Unistore.default_traffic_config with
    Unistore.arrival_rate = 60.0;
    peak = 4.0;
    traffic_duration_ms = 4_000.0;
    traffic_warmup_ms = 500.0;
    service_ms = 1.0;
  }

let run_replay ~faults () =
  let store, keys = build_store () in
  if faults then begin
    let spec =
      Unistore.Faults.spec ~seed:7
        ~churn:(Unistore.Faults.churn_spec ~interval_ms:50.0 ~down_ms:40.0 ~rate:0.05 ())
        ~protected:[ 0 ] ()
    in
    match Unistore.inject_faults store spec with
    | Some _ -> ()
    | None -> Alcotest.fail "fault injection refused"
  end;
  Unistore.reset_metrics store;
  Unistore.run_traffic store ~keys traffic_cfg

let check_replay ~faults () =
  let a = run_replay ~faults () in
  let b = run_replay ~faults () in
  Alcotest.(check string) "results digest replays byte-identically" a.Unistore.results_digest
    b.Unistore.results_digest;
  Alcotest.(check int) "offered replays" a.Unistore.engine.Unistore.Traffic.offered
    b.Unistore.engine.Unistore.Traffic.offered;
  Alcotest.(check int) "ok replays" a.Unistore.engine.Unistore.Traffic.ok
    b.Unistore.engine.Unistore.Traffic.ok;
  Alcotest.(check int) "queue.msgs replays" a.Unistore.queue_msgs b.Unistore.queue_msgs;
  Alcotest.(check int) "retries replay" a.Unistore.retries b.Unistore.retries;
  Alcotest.check (Alcotest.float 1e-9) "p99 replays" a.Unistore.engine.Unistore.Traffic.lat_p99_ms
    b.Unistore.engine.Unistore.Traffic.lat_p99_ms

let test_replay_fault_free () = check_replay ~faults:false ()

let test_replay_with_faults () =
  (* The determinism contract holds under fault injection too: churn
     waves, the queueing model and the balancer all draw from seeded
     streams, so a faulted traffic run replays byte-for-byte. *)
  check_replay ~faults:true ()

(* ------------------------------------------------------------------ *)
(* Facade: adaptive balancing vs the static baseline                   *)

(* One flash crowd against two identical 64-peer deployments that
   differ only in the balancing config. Every peer runs the
   service-queue model, so the static arm piles a backlog onto the hot
   region's owner and answers late; the adaptive arm spreads the region
   over boost replicas. Balancing may change performance, never
   answers. *)
let test_adaptive_beats_static () =
  let cfg =
    {
      Unistore.default_traffic_config with
      Unistore.traffic_duration_ms = 16_000.0;
      traffic_warmup_ms = 2_000.0;
    }
  in
  let arm balance =
    let store, keys = build_store ~peers:64 ~authors:20 () in
    Unistore.reset_metrics store;
    Unistore.run_traffic store ~keys { cfg with Unistore.balance }
  in
  let adaptive = arm Unistore.default_balance_config in
  let static = arm Unistore.no_balancing in
  let a = adaptive.Unistore.engine and s = static.Unistore.engine in
  Alcotest.(check string) "both arms return the same answers" static.Unistore.results_digest
    adaptive.Unistore.results_digest;
  Alcotest.(check int) "adaptive: no give-ups" 0 a.Unistore.Traffic.giveups;
  Alcotest.(check int) "static: no give-ups" 0 s.Unistore.Traffic.giveups;
  if a.throughput_qps <= s.throughput_qps then
    Alcotest.failf "adaptive throughput %.1f qps not above static %.1f qps" a.throughput_qps
      s.throughput_qps;
  if a.lat_p99_ms >= s.lat_p99_ms then
    Alcotest.failf "adaptive p99 %.1f ms not below static %.1f ms" a.lat_p99_ms s.lat_p99_ms;
  Alcotest.(check bool) "the balancer spawned a boost" true (adaptive.Unistore.boosts_spawned > 0);
  Alcotest.(check bool) "a boost replica served a lookup" true (adaptive.Unistore.hot_serves > 0)

let () =
  Alcotest.run "traffic"
    [
      ( "latency",
        [
          Alcotest.test_case "constant" `Quick test_latency_constant;
          Alcotest.test_case "uniform range and mean" `Quick test_latency_uniform;
          Alcotest.test_case "lan range and mean" `Quick test_latency_lan;
          Alcotest.test_case "planetlab expectation" `Quick test_latency_planetlab;
          Alcotest.test_case "seeded determinism" `Quick test_latency_determinism;
        ] );
      ( "queue",
        [
          Alcotest.test_case "fifo spacing" `Quick test_queue_fifo_spacing;
          Alcotest.test_case "svc=0 transparent" `Quick test_queue_disabled_is_transparent;
          Alcotest.test_case "seeded determinism" `Quick test_queue_determinism;
          Alcotest.test_case "Little's law (M/D/1)" `Quick test_queue_littles_law;
        ] );
      ( "generator",
        [
          Alcotest.test_case "schedule factors" `Quick test_schedule_factors;
          Alcotest.test_case "arrival processes" `Quick test_arrivals;
          Alcotest.test_case "zipf hot keys" `Quick test_hotkeys;
        ] );
      ( "engine",
        [
          Alcotest.test_case "offered stream deterministic" `Quick
            test_engine_offered_stream_deterministic;
          Alcotest.test_case "windowed accounting" `Quick test_engine_windowed_accounting;
        ] );
      ( "replay",
        [
          Alcotest.test_case "byte-identical, fault-free" `Quick test_replay_fault_free;
          Alcotest.test_case "byte-identical, faults active" `Quick test_replay_with_faults;
        ] );
      ( "balancing",
        [ Alcotest.test_case "adaptive beats static under a flash crowd" `Quick test_adaptive_beats_static ]
      );
    ]
