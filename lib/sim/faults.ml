(* Deterministic fault-injection driver.

   A scenario [spec] is compiled into simulator events at [inject] time:
   crash/revive churn waves, message-loss bursts, slow (high-latency)
   peers and network partitions, all driven from a single scenario seed
   so that the same spec against the same deployment reproduces the same
   fault schedule — and, because the simulator itself is deterministic,
   the same message trace. Every injected action is appended to an
   internal log (renderable for byte-identical replay tests) and, when a
   tracer is attached to the network, recorded as a [fault.*] marker
   event so Tracelint can correlate failures with protocol anomalies. *)

module Rng = Unistore_util.Rng
module Metrics = Unistore_obs.Metrics

type churn = { rate : float; interval_ms : float; down_ms : float }
type burst = { burst_at : float; burst_ms : float; burst_drop : float }
type slow = { slow_at : float; slow_ms : float; slow_fraction : float; slow_factor : float }
type partition = { part_at : float; part_ms : float; groups : int list list }

type spec = {
  seed : int;
  duration_ms : float;
  churn : churn option;
  bursts : burst list;
  slow : slow option;
  partition : partition option;
  protected : int list;
}

let spec ?(seed = 7) ?(duration_ms = 60_000.0) ?churn ?(bursts = []) ?slow ?partition
    ?(protected = []) () =
  { seed; duration_ms; churn; bursts; slow; partition; protected }

let churn_spec ?(interval_ms = 1_500.0) ?(down_ms = 4_000.0) ~rate () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Faults.churn_spec: rate out of [0,1]";
  { rate; interval_ms; down_ms }

type event = { at : float; fault : string; peer : int; detail : string }

type 'msg t = {
  net : 'msg Net.t;
  spec : spec;
  rng : Rng.t;
  (* Protected-peer membership as a hash set: [eligible] runs once per
     churn wave over every alive peer, and a [List.mem] there made each
     wave O(alive × protected). *)
  protected_set : (int, unit) Hashtbl.t;
  mutable rev_log : event list;
  mutable crashes : int;
  mutable revives : int;
}

let note t ~kind ~peer ~detail =
  let at = Sim.now (Net.sim t.net) in
  t.rev_log <- { at; fault = kind; peer; detail } :: t.rev_log;
  (match Net.trace t.net with Some tr -> Trace.mark tr ~time:at ~src:peer ~kind () | None -> ());
  match Net.metrics t.net with Some m -> Metrics.incr m kind | None -> ()

let eligible t =
  (* [Net.Oracle.alive_peers] is sorted ascending; keeping that order (rather
     than sampling the O(1) alive array directly) preserves the exact
     RNG-draw sequence of earlier kernels, so fault replays stay
     byte-identical. *)
  List.filter (fun p -> not (Hashtbl.mem t.protected_set p)) (Net.Oracle.alive_peers t.net)

(* Victim sets are sorted after sampling so that the kill order (and with
   it every downstream trace event) is a function of the RNG state alone,
   not of reservoir-sampling internals. *)
let pick_victims t ~count pool = List.sort compare (Rng.sample t.rng count pool)

let crash t peer ~revive_after ~detail =
  Net.kill t.net peer;
  t.crashes <- t.crashes + 1;
  note t ~kind:"fault.crash" ~peer ~detail;
  match revive_after with
  | None -> ()
  | Some down_ms ->
    Sim.schedule (Net.sim t.net) ~delay:down_ms (fun () ->
        if not (Net.Oracle.is_alive t.net peer) then begin
          Net.revive t.net peer;
          t.revives <- t.revives + 1;
          note t ~kind:"fault.revive" ~peer ~detail
        end)

let schedule_churn t (c : churn) =
  let sim = Net.sim t.net in
  let stop = Sim.now sim +. t.spec.duration_ms in
  let rec wave time =
    if time <= stop then
      Sim.schedule_at sim ~time (fun () ->
          let pool = eligible t in
          let count = int_of_float (Float.round (c.rate *. float_of_int (List.length pool))) in
          let victims = pick_victims t ~count pool in
          List.iter (fun p -> crash t p ~revive_after:(Some c.down_ms) ~detail:"churn") victims;
          wave (time +. c.interval_ms))
  in
  wave (Sim.now sim +. c.interval_ms)

let schedule_burst t (b : burst) =
  let sim = Net.sim t.net in
  Sim.schedule sim ~delay:b.burst_at (fun () ->
      let before = Net.drop t.net in
      Net.set_drop t.net b.burst_drop;
      note t ~kind:"fault.loss.start" ~peer:(-1)
        ~detail:(Printf.sprintf "drop=%.2f" b.burst_drop);
      Sim.schedule sim ~delay:b.burst_ms (fun () ->
          Net.set_drop t.net before;
          note t ~kind:"fault.loss.end" ~peer:(-1) ~detail:(Printf.sprintf "drop=%.2f" before)))

let schedule_slow t (s : slow) =
  let sim = Net.sim t.net in
  Sim.schedule sim ~delay:s.slow_at (fun () ->
      let pool = eligible t in
      let count =
        int_of_float (Float.round (s.slow_fraction *. float_of_int (List.length pool)))
      in
      let victims = pick_victims t ~count pool in
      List.iter
        (fun p ->
          Net.set_slow t.net p ~factor:s.slow_factor;
          note t ~kind:"fault.slow" ~peer:p ~detail:(Printf.sprintf "x%.1f" s.slow_factor))
        victims;
      Sim.schedule sim ~delay:s.slow_ms (fun () ->
          List.iter
            (fun p ->
              Net.clear_slow t.net p;
              note t ~kind:"fault.slow.end" ~peer:p ~detail:"")
            victims))

let schedule_partition t (p : partition) =
  let sim = Net.sim t.net in
  Sim.schedule sim ~delay:p.part_at (fun () ->
      List.iteri
        (fun gi group ->
          List.iter
            (fun peer ->
              Net.set_partition t.net peer ~group:(gi + 1);
              note t ~kind:"fault.partition" ~peer ~detail:(Printf.sprintf "group=%d" (gi + 1)))
            group)
        p.groups;
      Sim.schedule sim ~delay:p.part_ms (fun () ->
          Net.clear_partitions t.net;
          List.iter
            (fun peer -> note t ~kind:"fault.heal" ~peer ~detail:"")
            (List.concat p.groups)))

let inject net spec =
  let protected_set = Hashtbl.create (max 8 (List.length spec.protected)) in
  List.iter (fun p -> Hashtbl.replace protected_set p ()) spec.protected;
  let t =
    { net; spec; rng = Rng.create spec.seed; protected_set; rev_log = []; crashes = 0;
      revives = 0 }
  in
  Option.iter (schedule_churn t) spec.churn;
  List.iter (schedule_burst t) spec.bursts;
  Option.iter (schedule_slow t) spec.slow;
  Option.iter (schedule_partition t) spec.partition;
  t

let log t = List.rev t.rev_log
let crashes t = t.crashes
let revives t = t.revives
let render_event e = Printf.sprintf "%12.3f %-18s peer=%-5d %s" e.at e.fault e.peer e.detail
let render_log t = String.concat "\n" (List.map render_event (log t))

let pp fmt t =
  Format.fprintf fmt "@[<v>fault log (%d crashes, %d revives):@," t.crashes t.revives;
  List.iter (fun e -> Format.fprintf fmt "%s@," (render_event e)) (log t);
  Format.fprintf fmt "@]"
