(* Tests for the discrete-event simulator (unistore_sim). *)

open Unistore_util
module Pqueue = Unistore_sim.Pqueue
module Sim = Unistore_sim.Sim
module Latency = Unistore_sim.Latency
module Net = Unistore_sim.Net
module Trace = Unistore_sim.Trace
module Metrics = Unistore_obs.Metrics

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_order () =
  let q = Pqueue.create ~filler:0.0 () in
  List.iter (fun p -> Pqueue.push q ~priority:p p) [ 3.0; 1.0; 2.0; 0.5; 2.5 ];
  let out = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (_, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list (float 0.0)) "sorted" [ 0.5; 1.0; 2.0; 2.5; 3.0 ] (List.rev !out)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create ~filler:"" () in
  List.iter (fun v -> Pqueue.push q ~priority:1.0 v) [ "a"; "b"; "c" ];
  let pop () = match Pqueue.pop q with Some (_, v) -> v | None -> "?" in
  check Alcotest.string "fifo a" "a" (pop ());
  check Alcotest.string "fifo b" "b" (pop ());
  check Alcotest.string "fifo c" "c" (pop ())

let prop_pqueue_sorted =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"pqueue: pops are sorted"
       QCheck2.Gen.(list_size (0 -- 100) (float_bound_inclusive 1000.0))
       (fun prios ->
         let q = Pqueue.create ~filler:0.0 () in
         List.iter (fun p -> Pqueue.push q ~priority:p p) prios;
         let rec drain acc =
           match Pqueue.pop q with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
         in
         let out = drain [] in
         List.sort Float.compare prios = out))

let test_pqueue_size () =
  let q = Pqueue.create ~filler:() () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Pqueue.push q ~priority:1.0 ();
  check Alcotest.int "size 1" 1 (Pqueue.size q);
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q)

(* Popped or removed payloads must not stay reachable from the queue:
   neither through a freed slot nor through the fresh slots of a grown
   array. The payloads are built and queued in a separate function so
   no local of the test keeps them alive; 200 entries force two grows,
   and every third one is removed instead of popped. *)
let test_pqueue_no_retention () =
  let n = 200 in
  let weak = Weak.create n in
  let q = Pqueue.create ~filler:(ref (-1)) () in
  let handles = ref [] in
  let[@inline never] fill () =
    for i = 0 to n - 1 do
      let payload = ref i in
      Weak.set weak i (Some payload);
      let priority = float_of_int ((i * 37) mod n) in
      if i mod 3 = 0 then handles := Pqueue.add q ~priority payload :: !handles
      else Pqueue.push q ~priority payload
    done
  in
  let[@inline never] drain () =
    List.iter (fun h -> assert (Pqueue.remove q h)) !handles;
    let rec go () = match Pqueue.pop q with Some _ -> go () | None -> () in
    go ()
  in
  fill ();
  drain ();
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr alive
  done;
  check Alcotest.int "popped payloads reachable" 0 !alive;
  check Alcotest.int "queue empty" 0 (Pqueue.size q)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_time_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:10.0 (fun () -> log := "b" :: !log);
  Sim.schedule sim ~delay:5.0 (fun () -> log := "a" :: !log);
  Sim.schedule sim ~delay:20.0 (fun () -> log := "c" :: !log);
  Sim.run_all sim;
  check Alcotest.(list string) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock" 20.0 (Sim.now sim)

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let fired = ref 0.0 in
  Sim.schedule sim ~delay:5.0 (fun () ->
      Sim.schedule sim ~delay:3.0 (fun () -> fired := Sim.now sim));
  Sim.run_all sim;
  check (Alcotest.float 1e-9) "nested at 8" 8.0 !fired

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Sim.schedule sim ~delay:1.0 (fun () -> incr count)
  done;
  let ok = Sim.run_until sim (fun () -> !count >= 5) in
  Alcotest.(check bool) "predicate met" true ok;
  check Alcotest.int "stopped at 5" 5 !count;
  Sim.run_all sim;
  check Alcotest.int "rest ran" 10 !count

let test_sim_run_until_drains () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:1.0 (fun () -> ());
  let ok = Sim.run_until sim (fun () -> false) in
  Alcotest.(check bool) "drained without predicate" false ok

let test_sim_await () =
  let sim = Sim.create () in
  let late = ref false in
  (* The answer comes at 5 ms; an unrelated event waits at 50 ms. *)
  Sim.schedule sim ~delay:50.0 (fun () -> late := true);
  let got = Sim.await sim (fun k -> Sim.schedule sim ~delay:5.0 (fun () -> k 42; k 7)) in
  check Alcotest.(option int) "first value" (Some 42) got;
  check (Alcotest.float 1e-9) "stopped when k fired" 5.0 (Sim.now sim);
  Alcotest.(check bool) "later events stay queued" false !late;
  check Alcotest.(option int) "drained first" None (Sim.await sim (fun _ -> ()));
  Alcotest.(check bool) "drain ran them" true !late;
  check Alcotest.(option string) "immediate answer" (Some "now") (Sim.await sim (fun k -> k "now"))

let test_sim_run_for () =
  let sim = Sim.create () in
  let count = ref 0 in
  List.iter (fun d -> Sim.schedule sim ~delay:d (fun () -> incr count)) [ 1.0; 2.0; 3.0; 10.0 ];
  Sim.run_for sim ~duration:5.0;
  check Alcotest.int "within window" 3 !count;
  check (Alcotest.float 1e-9) "clock advanced" 5.0 (Sim.now sim);
  Sim.run_all sim;
  check Alcotest.int "all" 4 !count

let test_sim_negative_delay () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      Sim.schedule sim ~delay:(-1.0) (fun () -> ()))

(* A cancelled timer never runs, never moves the clock and is not
   counted; cancelling it again, or a timer that already fired, is a
   no-op. *)
let test_sim_cancel () =
  let sim = Sim.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  Sim.schedule sim ~delay:5.0 (note "a");
  let dead = Sim.timer sim ~delay:50.0 (note "dead") in
  let live = Sim.timer sim ~delay:8.0 (note "live") in
  check Alcotest.int "pending before cancel" 3 (Sim.pending sim);
  Alcotest.(check bool) "cancel removes" true (Sim.cancel sim dead);
  check Alcotest.int "pending excludes cancelled" 2 (Sim.pending sim);
  Alcotest.(check bool) "second cancel is a no-op" false (Sim.cancel sim dead);
  check Alcotest.int "pending unchanged" 2 (Sim.pending sim);
  Sim.run_all sim;
  check Alcotest.(list string) "cancelled never ran" [ "a"; "live" ] (List.rev !log);
  check (Alcotest.float 0.0) "clock at the last live event" 8.0 (Sim.now sim);
  check Alcotest.int "processed excludes cancelled" 2 (Sim.processed sim);
  Alcotest.(check bool) "cancel after firing is a no-op" false (Sim.cancel sim live);
  Alcotest.(check bool) "no_timer cancels nothing" false (Sim.cancel sim Sim.no_timer)

(* A cancelled entry at the head of the queue neither lets [run_for]
   run a live event past its window nor stops it before the live events
   inside the window. *)
let test_sim_run_for_cancelled_head () =
  let sim = Sim.create () in
  let log = ref [] in
  let head = Sim.timer sim ~delay:1.0 (fun () -> log := "head" :: !log) in
  Sim.schedule sim ~delay:3.0 (fun () -> log := "in" :: !log);
  Sim.schedule sim ~delay:10.0 (fun () -> log := "out" :: !log);
  ignore (Sim.cancel sim head);
  Sim.run_for sim ~duration:5.0;
  check Alcotest.(list string) "only the live event in the window" [ "in" ] !log;
  check (Alcotest.float 0.0) "clock at the window's end" 5.0 (Sim.now sim);
  check Alcotest.int "the later event waits" 1 (Sim.pending sim)

(* Random schedule / timer / cancel / run_for sequences against a
   sorted-list model of the queue: same execution order, same cancel
   answers, same pending counts, same final clock. *)
type sim_op = Plain of float | Timer of float | Cancel of int | Run_for of float

let gen_sim_op =
  QCheck2.Gen.(
    oneof
      [
        map (fun d -> Plain d) (float_bound_inclusive 10.0);
        map (fun d -> Timer d) (float_bound_inclusive 10.0);
        map (fun i -> Cancel i) (0 -- 50);
        map (fun d -> Run_for d) (float_bound_inclusive 4.0);
      ])

let prop_sim_cancel_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"sim: schedule/cancel/run = sorted-list model"
       ~print:(fun ops ->
         String.concat "; "
           (List.map
              (function
                | Plain d -> Printf.sprintf "Plain %h" d
                | Timer d -> Printf.sprintf "Timer %h" d
                | Cancel i -> Printf.sprintf "Cancel %d" i
                | Run_for d -> Printf.sprintf "Run_for %h" d)
              ops))
       QCheck2.Gen.(list_size (0 -- 80) gen_sim_op)
       (fun ops ->
         let sim = Sim.create () in
         let ran = ref [] in
         let timers = ref [||] in
         (* The model: queued (time, id) pairs in (time, scheduling) order,
            its clock, its execution log. *)
         let queue = ref [] and now = ref 0.0 and model_ran = ref [] in
         let next_id = ref 0 in
         let enqueue time id =
           let rec ins = function
             | (t', _) :: _ as l when time < t' -> (time, id) :: l
             | x :: rest -> x :: ins rest
             | [] -> [ (time, id) ]
           in
           queue := ins !queue
         in
         let model_run_until deadline =
           let rec go () =
             match !queue with
             | (time, id) :: rest when time <= deadline ->
               queue := rest;
               now := Float.max !now time;
               model_ran := id :: !model_ran;
               go ()
             | _ -> ()
           in
           go ()
         in
         let agree = ref true in
         let schedule ~timer d =
           let id = !next_id in
           incr next_id;
           let f () = ran := id :: !ran in
           enqueue (!now +. d) id;
           if timer then timers := Array.append !timers [| (Sim.timer sim ~delay:d f, id) |]
           else Sim.schedule sim ~delay:d f
         in
         List.iter
           (fun op ->
             (match op with
             | Plain d -> schedule ~timer:false d
             | Timer d -> schedule ~timer:true d
             | Cancel i when Array.length !timers > 0 ->
               let h, id = !timers.(i mod Array.length !timers) in
               let queued = List.exists (fun (_, id') -> id' = id) !queue in
               queue := List.filter (fun (_, id') -> id' <> id) !queue;
               if Sim.cancel sim h <> queued then agree := false
             | Cancel _ -> ()
             | Run_for d ->
               let deadline = !now +. d in
               Sim.run_for sim ~duration:d;
               model_run_until deadline;
               now := deadline);
             if Sim.pending sim <> List.length !queue then agree := false)
           ops;
         Sim.run_all sim;
         model_run_until infinity;
         !agree && !ran = !model_ran && Sim.now sim = !now))

(* ------------------------------------------------------------------ *)
(* Latency *)

let test_latency_constant () =
  let rng = Rng.create 1 in
  let l = Latency.create (Latency.Constant 7.0) ~n:10 ~rng in
  check (Alcotest.float 1e-9) "constant" 7.0 (Latency.sample l ~src:0 ~dst:1);
  check (Alcotest.float 1e-9) "expected" 7.0 (Latency.expected l)

let test_latency_uniform_bounds () =
  let rng = Rng.create 2 in
  let l = Latency.create (Latency.Uniform (5.0, 10.0)) ~n:10 ~rng in
  for _ = 1 to 500 do
    let d = Latency.sample l ~src:0 ~dst:1 in
    if d < 5.0 || d >= 10.0 then Alcotest.failf "uniform out of bounds: %f" d
  done

let test_latency_planetlab_positive () =
  let rng = Rng.create 3 in
  let l = Latency.create Latency.Planetlab ~n:50 ~rng in
  for s = 0 to 9 do
    for d = 0 to 9 do
      let v = Latency.sample l ~src:s ~dst:d in
      if v < 5.0 then Alcotest.failf "planetlab latency suspiciously low: %f" v;
      if v > 2000.0 then Alcotest.failf "planetlab latency suspiciously high: %f" v
    done
  done

let test_latency_planetlab_base_deterministic () =
  let rng = Rng.create 4 in
  let l = Latency.create Latency.Planetlab ~n:20 ~rng in
  check (Alcotest.float 1e-9) "base deterministic"
    (Latency.base l ~src:1 ~dst:2)
    (Latency.base l ~src:1 ~dst:2)

(* ------------------------------------------------------------------ *)
(* Net *)

let mknet ?(drop = 0.0) ?(model = Latency.Constant 1.0) n =
  let sim = Sim.create () in
  let rng = Rng.create 99 in
  let latency = Latency.create model ~n ~rng in
  let net = Net.create sim ~latency ~rng ~drop () in
  (sim, net)

let test_net_delivery () =
  let sim, net = mknet 2 in
  let inbox = ref [] in
  Net.register net 0 (fun ~src msg -> inbox := (src, msg) :: !inbox);
  Net.register net 1 (fun ~src msg -> inbox := (src, msg) :: !inbox);
  Net.send net ~src:0 ~dst:1 "hello";
  Sim.run_all sim;
  check Alcotest.(list (pair int string)) "delivered" [ (0, "hello") ] !inbox;
  check (Alcotest.float 1e-9) "took latency" 1.0 (Sim.now sim)

(* The network's counts live in an attached metrics registry. *)
let with_metrics net =
  let m = Metrics.create () in
  Net.set_metrics net (Some m);
  Metrics.counter m

let test_net_dead_peer () =
  let sim, net = mknet 2 in
  let count = with_metrics net in
  let got = ref false in
  Net.register net 0 (fun ~src:_ _ -> ());
  Net.register net 1 (fun ~src:_ _ -> got := true);
  Net.kill net 1;
  Net.send net ~src:0 ~dst:1 "x";
  Sim.run_all sim;
  Alcotest.(check bool) "not delivered" false !got;
  check Alcotest.int "counted dead" 1 (count "net.to_dead");
  Net.revive net 1;
  Net.send net ~src:0 ~dst:1 "y";
  Sim.run_all sim;
  Alcotest.(check bool) "delivered after revive" true !got

let test_net_drop () =
  let sim, net = mknet ~drop:1.0 2 in
  let count = with_metrics net in
  let got = ref false in
  Net.register net 0 (fun ~src:_ _ -> ());
  Net.register net 1 (fun ~src:_ _ -> got := true);
  Net.send net ~src:0 ~dst:1 "x";
  Sim.run_all sim;
  Alcotest.(check bool) "dropped" false !got;
  check Alcotest.int "dropped count" 1 (count "net.dropped")

let test_net_counters () =
  let sim, net = mknet 3 in
  let count = with_metrics net in
  List.iter (fun i -> Net.register net i (fun ~src:_ _ -> ())) [ 0; 1; 2 ];
  Net.send net ~src:0 ~dst:1 "a";
  Net.send net ~src:1 ~dst:2 "b";
  Sim.run_all sim;
  check Alcotest.int "sent" 2 (count "net.sent");
  check Alcotest.int "delivered" 2 (count "net.delivered");
  check Alcotest.int "total agrees with the registry" 2 (Net.total_sent net)

(* Fault hooks used by the fault-injection driver. *)

let test_net_set_drop () =
  let sim, net = mknet 2 in
  let got = ref 0 in
  Net.register net 0 (fun ~src:_ _ -> ());
  Net.register net 1 (fun ~src:_ _ -> incr got);
  Net.set_drop net 1.0;
  Net.send net ~src:0 ~dst:1 "lost";
  Sim.run_all sim;
  check Alcotest.int "lossy phase drops" 0 !got;
  Net.set_drop net 0.0;
  Net.send net ~src:0 ~dst:1 "through";
  Sim.run_all sim;
  check Alcotest.int "restored drop rate delivers" 1 !got;
  Alcotest.check_raises "probability validated" (Invalid_argument "Net.set_drop: probability out of [0,1]")
    (fun () -> Net.set_drop net 1.5)

let test_net_set_slow () =
  let sim, net = mknet 3 in
  List.iter (fun i -> Net.register net i (fun ~src:_ _ -> ())) [ 0; 1; 2 ];
  Net.set_slow net 1 ~factor:8.0;
  let t0 = Sim.now sim in
  Net.send net ~src:0 ~dst:1 "slowed";
  Sim.run_all sim;
  check (Alcotest.float 1e-9) "touching the slow peer multiplies latency" 8.0 (Sim.now sim -. t0);
  let t1 = Sim.now sim in
  Net.send net ~src:0 ~dst:2 "normal";
  Sim.run_all sim;
  check (Alcotest.float 1e-9) "other pairs unaffected" 1.0 (Sim.now sim -. t1);
  Net.clear_slow net 1;
  let t2 = Sim.now sim in
  Net.send net ~src:0 ~dst:1 "recovered";
  Sim.run_all sim;
  check (Alcotest.float 1e-9) "latency restored" 1.0 (Sim.now sim -. t2)

let test_net_partition () =
  let sim, net = mknet 4 in
  let inbox = ref [] in
  List.iter (fun i -> Net.register net i (fun ~src:_ msg -> inbox := msg :: !inbox)) [ 0; 1; 2; 3 ];
  (* 0,1 stay in the default group; 2,3 split away. *)
  Net.set_partition net 2 ~group:1;
  Net.set_partition net 3 ~group:1;
  Net.send net ~src:0 ~dst:2 "cross";
  Net.send net ~src:0 ~dst:1 "same-default";
  Net.send net ~src:2 ~dst:3 "same-split";
  Sim.run_all sim;
  check
    Alcotest.(slist string compare)
    "only intra-group traffic flows" [ "same-default"; "same-split" ] !inbox;
  Net.clear_partitions net;
  Net.send net ~src:0 ~dst:2 "healed";
  Sim.run_all sim;
  Alcotest.(check bool) "healed partition delivers" true (List.mem "healed" !inbox)

let test_net_in_flight_to_killed () =
  (* A message already in flight when the destination dies is lost. *)
  let sim, net = mknet 2 in
  let got = ref false in
  Net.register net 0 (fun ~src:_ _ -> ());
  Net.register net 1 (fun ~src:_ _ -> got := true);
  Net.send net ~src:0 ~dst:1 "x";
  Net.kill net 1;
  Sim.run_all sim;
  Alcotest.(check bool) "lost in flight" false !got

let test_net_bytes_split_under_loss () =
  (* Sent bytes count everything handed to the network; delivered bytes
     only what reached a live handler — so bandwidth numbers computed
     from [bytes_delivered] stay trustworthy under loss. *)
  let sim = Sim.create () in
  let rng = Rng.create 7 in
  let latency = Latency.create (Latency.Constant 1.0) ~n:2 ~rng in
  let net = Net.create sim ~latency ~rng ~drop:0.5 ~size:String.length () in
  let count = with_metrics net in
  Net.register net 0 (fun ~src:_ _ -> ());
  Net.register net 1 (fun ~src:_ _ -> ());
  let payload = String.make 10 'x' in
  for _ = 1 to 100 do
    Net.send net ~src:0 ~dst:1 payload
  done;
  Sim.run_all sim;
  check Alcotest.int "all bytes counted as sent" 1000 (count "net.bytes.sent");
  check Alcotest.int "delivered bytes track delivered messages" (10 * count "net.delivered")
    (count "net.bytes.delivered");
  Alcotest.(check bool) "some loss occurred" true (count "net.dropped" > 0);
  Alcotest.(check bool) "delivered strictly less than sent" true
    (count "net.bytes.delivered" < count "net.bytes.sent")

let test_net_peer_lists_invalidated () =
  (* [peers]/[alive_peers] are cached; every mutation must invalidate. *)
  let _, net = mknet 4 in
  List.iter (fun i -> Net.register net i (fun ~src:_ _ -> ())) [ 2; 0; 3 ];
  check Alcotest.(list int) "sorted" [ 0; 2; 3 ] (Net.peers net);
  check Alcotest.(list int) "all alive" [ 0; 2; 3 ] (Net.Oracle.alive_peers net);
  Net.register net 1 (fun ~src:_ _ -> ());
  check Alcotest.(list int) "register invalidates" [ 0; 1; 2; 3 ] (Net.peers net);
  Net.kill net 2;
  check Alcotest.(list int) "kill invalidates alive" [ 0; 1; 3 ] (Net.Oracle.alive_peers net);
  check Alcotest.(list int) "kill keeps membership" [ 0; 1; 2; 3 ] (Net.peers net);
  Net.revive net 2;
  check Alcotest.(list int) "revive invalidates" [ 0; 1; 2; 3 ] (Net.Oracle.alive_peers net);
  (* Idempotent mutations keep the caches consistent. *)
  Net.kill net 0;
  Net.kill net 0;
  check Alcotest.(list int) "double kill" [ 1; 2; 3 ] (Net.Oracle.alive_peers net);
  Net.register net 0 (fun ~src:_ _ -> ());
  check Alcotest.(list int) "re-register revives" [ 0; 1; 2; 3 ] (Net.Oracle.alive_peers net)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_records_messages () =
  let sim, net = mknet 3 in
  List.iter (fun i -> Net.register net i (fun ~src:_ _ -> ())) [ 0; 1; 2 ];
  let tr = Trace.create () in
  Net.set_trace net (Some tr);
  Net.send net ~src:0 ~dst:1 "hello";
  Net.send net ~src:1 ~dst:2 "world";
  Sim.run_all sim;
  check Alcotest.int "two events" 2 (Trace.length tr);
  let delivered, dropped, to_dead, in_flight = Trace.outcome_counts tr in
  check Alcotest.int "delivered" 2 delivered;
  check Alcotest.int "dropped" 0 dropped;
  check Alcotest.int "to_dead" 0 to_dead;
  check Alcotest.int "in flight" 0 in_flight;
  (* Stop tracing: further messages unrecorded. *)
  Net.set_trace net None;
  Net.send net ~src:0 ~dst:2 "untraced";
  Sim.run_all sim;
  check Alcotest.int "still two" 2 (Trace.length tr)

let test_trace_outcomes () =
  let sim, net = mknet ~drop:1.0 2 in
  Net.register net 0 (fun ~src:_ _ -> ());
  Net.register net 1 (fun ~src:_ _ -> ());
  let tr = Trace.create () in
  Net.set_trace net (Some tr);
  Net.send net ~src:0 ~dst:1 "x";
  Sim.run_all sim;
  let _, dropped, _, _ = Trace.outcome_counts tr in
  check Alcotest.int "dropped traced" 1 dropped;
  (* Dead destination. *)
  let sim2, net2 = mknet 2 in
  Net.register net2 0 (fun ~src:_ _ -> ());
  Net.register net2 1 (fun ~src:_ _ -> ());
  Net.kill net2 1;
  let tr2 = Trace.create () in
  Net.set_trace net2 (Some tr2);
  Net.send net2 ~src:0 ~dst:1 "x";
  Sim.run_all sim2;
  let _, _, to_dead, _ = Trace.outcome_counts tr2 in
  check Alcotest.int "to-dead traced" 1 to_dead

let test_trace_analysis () =
  let tr = Trace.create () in
  ignore (Trace.record tr ~time:10.0 ~src:0 ~dst:1 ~kind:"lookup" ~bytes:10 ());
  ignore (Trace.record tr ~time:220.0 ~src:1 ~dst:2 ~kind:"lookup" ~bytes:20 ());
  (Trace.record tr ~time:230.0 ~src:2 ~dst:0 ~kind:"found" ~bytes:30 ()).Trace.outcome <-
    Trace.Delivered;
  (match Trace.by_kind tr with
  | (k1, c1, b1) :: _ ->
    check Alcotest.string "top kind" "lookup" k1;
    check Alcotest.int "count" 2 c1;
    check Alcotest.int "bytes" 30 b1
  | [] -> Alcotest.fail "no kinds");
  check Alcotest.int "two buckets at 100ms" 2
    (List.length (List.filter (fun (_, c) -> c > 0) (Trace.timeline tr ~bucket_ms:100.0)));
  let busiest = Trace.busiest_peers tr ~top:3 in
  check Alcotest.int "three peers" 3 (List.length busiest);
  (* peer 2: sent 1, received 0 (only 'found' delivered, to peer 0). *)
  (match List.assoc_opt 0 (List.map (fun (p, s, r) -> (p, (s, r))) busiest) with
  | Some (s, r) ->
    check Alcotest.int "peer0 sent" 1 s;
    check Alcotest.int "peer0 received" 1 r
  | None -> Alcotest.fail "peer0 missing");
  let s = Format.asprintf "%a" Trace.pp_summary tr in
  Alcotest.(check bool) "summary renders" true (String.length s > 40)

let () =
  Alcotest.run "unistore_sim"
    [
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "size/clear" `Quick test_pqueue_size;
          Alcotest.test_case "no retention" `Quick test_pqueue_no_retention;
          prop_pqueue_sorted;
        ] );
      ( "sim",
        [
          Alcotest.test_case "time ordering" `Quick test_sim_time_ordering;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested_scheduling;
          Alcotest.test_case "run_until" `Quick test_sim_run_until;
          Alcotest.test_case "run_until drains" `Quick test_sim_run_until_drains;
          Alcotest.test_case "await" `Quick test_sim_await;
          Alcotest.test_case "run_for" `Quick test_sim_run_for;
          Alcotest.test_case "negative delay" `Quick test_sim_negative_delay;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run_for past a cancelled head" `Quick test_sim_run_for_cancelled_head;
          prop_sim_cancel_model;
        ] );
      ( "latency",
        [
          Alcotest.test_case "constant" `Quick test_latency_constant;
          Alcotest.test_case "uniform bounds" `Quick test_latency_uniform_bounds;
          Alcotest.test_case "planetlab sane" `Quick test_latency_planetlab_positive;
          Alcotest.test_case "planetlab base deterministic" `Quick
            test_latency_planetlab_base_deterministic;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records messages" `Quick test_trace_records_messages;
          Alcotest.test_case "outcomes" `Quick test_trace_outcomes;
          Alcotest.test_case "analysis" `Quick test_trace_analysis;
        ] );
      ( "net",
        [
          Alcotest.test_case "delivery" `Quick test_net_delivery;
          Alcotest.test_case "dead peer" `Quick test_net_dead_peer;
          Alcotest.test_case "drop" `Quick test_net_drop;
          Alcotest.test_case "counters" `Quick test_net_counters;
          Alcotest.test_case "in-flight to killed" `Quick test_net_in_flight_to_killed;
          Alcotest.test_case "loss-burst hook" `Quick test_net_set_drop;
          Alcotest.test_case "slow-peer hook" `Quick test_net_set_slow;
          Alcotest.test_case "partition hook" `Quick test_net_partition;
          Alcotest.test_case "sent/delivered bytes under loss" `Quick
            test_net_bytes_split_under_loss;
          Alcotest.test_case "peer-list caches invalidated" `Quick
            test_net_peer_lists_invalidated;
        ] );
    ]
