module Rng = Unistore_util.Rng
module Stats = Unistore_util.Stats
module Sim = Unistore_sim.Sim

(* The open-loop load generator. Arrivals are scheduled on the shared
   simulator clock from the engine's own seeded RNG (three split
   streams: arrival gaps, key choice, origin choice), so the offered
   workload — which key, from which origin, at which instant — is
   byte-identical across runs and across system configurations. That is
   what makes two-arm comparisons (adaptive balancing on vs. off) sound:
   both arms face exactly the same request sequence. *)

type config = {
  rate_per_s : float;  (* base offered load, queries per second *)
  schedule : Schedule.t;
  duration_ms : float;
  warmup_ms : float;  (* completions of requests issued before this are discarded *)
  seed : int;
  control_interval_ms : float;  (* cadence of the [control] hook; 0 disables *)
}

let default =
  {
    rate_per_s = 200.0;
    schedule = Schedule.Steady;
    duration_ms = 30_000.0;
    warmup_ms = 3_000.0;
    seed = 0x7AF1C;
    control_interval_ms = 1_000.0;
  }

type completion = { ok : bool; items : int }

type report = {
  offered : int;  (* requests issued over the whole run *)
  measured : int;  (* issued inside the measurement window *)
  ok : int;  (* measured requests that completed successfully *)
  served_in_window : int;
      (* ok completions that landed before the arrival stream ended —
         the numerator of [throughput_qps]. A backlogged system answers
         everything eventually (open loop + drain), but late: served
         throughput, not eventual completion, is what degrades. *)
  giveups : int;  (* measured requests that gave up (timeout budget) *)
  items : int;  (* items returned by measured requests *)
  throughput_qps : float;  (* served_in_window / window length *)
  lat_mean_ms : float;
  lat_p50_ms : float;
  lat_p90_ms : float;
  lat_p99_ms : float;
  lat_max_ms : float;
}

let percentiles lats =
  match lats with
  | [] -> (0.0, 0.0, 0.0, 0.0, 0.0)
  | l ->
    ( Stats.mean l,
      Stats.percentile l 50.0,
      Stats.percentile l 90.0,
      Stats.percentile l 99.0,
      Stats.percentile l 100.0 )

(* [run ~sim ~origins ~hotkeys ~issue cfg] drives the whole experiment:
   schedules the arrival stream, runs the simulator to completion (open
   loop ends at [duration_ms]; the drain after it lets stragglers and
   timeouts resolve), and reports windowed throughput and latency.

   [issue ~seq ~origin ~key ~k] must start one asynchronous query and
   eventually call [k] exactly once. [on_warmup] fires once when the
   measurement window opens (reset steady-state histograms there).
   [control ~now] fires every [control_interval_ms] until the end of
   the arrival stream (gossip, balance rounds). *)
let run ~sim ~origins ~hotkeys ?(on_warmup = fun () -> ()) ?(control = fun ~now:_ -> ()) ~issue
    cfg =
  if Array.length origins = 0 then invalid_arg "Engine.run: no origins";
  if cfg.duration_ms <= 0.0 then invalid_arg "Engine.run: duration must be positive";
  let rng = Rng.create cfg.seed in
  let arrival_rng = Rng.split rng in
  let key_rng = Rng.split rng in
  let origin_rng = Rng.split rng in
  let t0 = Sim.now sim in
  let t_end = t0 +. cfg.duration_ms in
  let t_meas = t0 +. cfg.warmup_ms in
  let offered = ref 0 in
  let measured_n = ref 0 in
  let ok = ref 0 in
  let in_window = ref 0 in
  let giveups = ref 0 in
  let items = ref 0 in
  let lats = ref [] in
  let rec tick () =
    let now = Sim.now sim in
    if now < t_end then begin
      let seq = !offered in
      incr offered;
      let key = Hotkeys.sample hotkeys key_rng in
      let origin = origins.(Rng.int origin_rng (Array.length origins)) in
      let measured = now >= t_meas in
      if measured then incr measured_n;
      let issued_at = now in
      issue ~seq ~origin ~key ~k:(fun (c : completion) ->
          if measured then begin
            let done_at = Sim.now sim in
            if c.ok then begin
              incr ok;
              if done_at <= t_end then incr in_window
            end
            else incr giveups;
            items := !items + c.items;
            lats := (done_at -. issued_at) :: !lats
          end);
      let factor = Schedule.factor cfg.schedule ~t:(now -. t0) in
      let rate_per_ms = cfg.rate_per_s *. factor /. 1000.0 in
      Sim.schedule sim ~delay:(Arrivals.gap arrival_rng ~rate_per_ms) tick
    end
  in
  (* First arrival after one gap at the base rate. *)
  Sim.schedule sim
    ~delay:(Arrivals.gap arrival_rng ~rate_per_ms:(cfg.rate_per_s /. 1000.0))
    tick;
  if cfg.warmup_ms > 0.0 then Sim.schedule_at sim ~time:t_meas on_warmup;
  if cfg.control_interval_ms > 0.0 then begin
    let rec ctl () =
      let now = Sim.now sim in
      if now < t_end then begin
        (* Reschedule before running the hook: a control hook that
           pumps the simulator (drains events) must not be able to
           starve its own successor out of the queue. *)
        Sim.schedule sim ~delay:cfg.control_interval_ms ctl;
        control ~now
      end
    in
    Sim.schedule sim ~delay:cfg.control_interval_ms ctl
  end;
  Sim.run_all sim (* srclint: allow blocking-wait *);
  let window_s = (cfg.duration_ms -. cfg.warmup_ms) /. 1000.0 in
  let mean, p50, p90, p99, mx = percentiles !lats in
  {
    offered = !offered;
    measured = !measured_n;
    ok = !ok;
    served_in_window = !in_window;
    giveups = !giveups;
    items = !items;
    throughput_qps = (if window_s > 0.0 then float_of_int !in_window /. window_s else 0.0);
    lat_mean_ms = mean;
    lat_p50_ms = p50;
    lat_p90_ms = p90;
    lat_p99_ms = p99;
    lat_max_ms = mx;
  }
