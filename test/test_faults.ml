(* Tests for churn-hardened query processing: the deterministic
   fault-injection driver, retry/failover/partial-result behavior in the
   overlay, self-healing repair, and the fault-aware trace linter.

   Flakiness policy: there is no wall-clock and no ambient randomness
   anywhere below — every kill, revive, loss burst and retry delay is a
   pure function of the simulator seed and the fault-scenario seed, so
   each of these tests either always passes or always fails. Thresholds
   ("recall >= 0.95") are checked against deterministic replays, not
   statistical runs. *)

open Unistore_util
module Sim = Unistore_sim.Sim
module Latency = Unistore_sim.Latency
module Net = Unistore_sim.Net
module Trace = Unistore_sim.Trace
module Faults = Unistore_sim.Faults
module Store = Unistore_pgrid.Store
module Node = Unistore_pgrid.Node
module Config = Unistore_pgrid.Config
module Message = Unistore_pgrid.Message
module Overlay = Unistore_pgrid.Overlay
module Build = Unistore_pgrid.Build
module Repair = Unistore_pgrid.Repair
module Metrics = Unistore_obs.Metrics
module Binding = Unistore_qproc.Binding
module Publications = Unistore_workload.Publications
module D = Unistore_analysis.Diagnostic

open Test_support

let check = Alcotest.check

let with_metrics ov =
  let m = Metrics.create () in
  Overlay.set_metrics ov (Some m);
  m

(* ------------------------------------------------------------------ *)
(* Determinism *)

(* The driver's contract: same seed, same deployment => byte-identical
   fault log, across every fault family at once. *)
let full_spec =
  Faults.spec ~seed:13 ~duration_ms:20_000.0
    ~churn:(Faults.churn_spec ~interval_ms:500.0 ~down_ms:900.0 ~rate:0.2 ())
    ~bursts:[ { Faults.burst_at = 3_000.0; burst_ms = 2_000.0; burst_drop = 0.4 } ]
    ~slow:{ Faults.slow_at = 6_000.0; slow_ms = 3_000.0; slow_fraction = 0.25; slow_factor = 8.0 }
    ~partition:
      { Faults.part_at = 10_000.0; part_ms = 4_000.0; groups = [ [ 1; 2; 3 ]; [ 4; 5; 6 ] ] }
    ~protected:[ 0 ] ()

let run_scenario () =
  let keys = random_words (Rng.create 3) 40 in
  let ov = build_overlay ~n:24 ~keys () in
  insert_all ov keys;
  Sim.run_all (Overlay.sim ov);
  let h = Faults.inject (Overlay.net ov) full_spec in
  Sim.run_all (Overlay.sim ov);
  h

let test_deterministic_replay () =
  let h1 = run_scenario () in
  let h2 = run_scenario () in
  Alcotest.(check bool) "scenario actually crashed peers" true (Faults.crashes h1 > 0);
  Alcotest.(check bool) "victims revive" true (Faults.revives h1 > 0);
  check Alcotest.string "byte-identical fault log across replays" (Faults.render_log h1)
    (Faults.render_log h2);
  (* A different seed must not replay the same schedule. *)
  let keys = random_words (Rng.create 3) 40 in
  let ov = build_overlay ~n:24 ~keys () in
  insert_all ov keys;
  Sim.run_all (Overlay.sim ov);
  let h3 = Faults.inject (Overlay.net ov) { full_spec with Faults.seed = 14 } in
  Sim.run_all (Overlay.sim ov);
  Alcotest.(check bool) "different seed, different schedule" false
    (String.equal (Faults.render_log h1) (Faults.render_log h3))

let test_protected_never_killed () =
  let h = run_scenario () in
  List.iter
    (fun (e : Faults.event) ->
      if e.Faults.peer = 0 && String.equal e.Faults.fault "fault.crash" then
        Alcotest.failf "protected peer 0 was crashed at %.1f" e.Faults.at)
    (Faults.log h)

(* ------------------------------------------------------------------ *)
(* Recall under churn (facade level, mirroring the churn benchmark) *)

let workload =
  [
    "SELECT ?a WHERE { (?a,'num_of_pubs',2) }";
    "SELECT ?a,?g WHERE { (?a,'age',?g) FILTER ?g >= 30 FILTER ?g <= 55 }";
    "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) }";
  ]

let row_set (r : Unistore.Report.report) =
  List.sort compare (List.map Binding.fingerprint r.Unistore.Report.rows)

let deploy_pubs () =
  let rng = Rng.create 43 in
  let ds = Publications.generate rng { Publications.default_params with n_authors = 20 } in
  let store =
    Unistore.create
      ~sample_keys:(Publications.sample_keys ds)
      { Unistore.default_config with peers = 64; seed = 42; cache = false }
  in
  ignore (Unistore.load store ds.Publications.tuples);
  Unistore.set_stats_of_triples store ds.Publications.triples;
  Unistore.settle store;
  store

(* Two query rounds under 30% churn (a kill wave every 10ms, down for
   10ms — faster than a healthy query finishes), and how many retries
   they took. *)
let churned_rows () =
  let store = deploy_pubs () in
  Unistore.reset_metrics store;
  ignore
    (Unistore.inject_faults store
       (Unistore.Faults.spec ~seed:8 ~duration_ms:600_000.0
          ~churn:(Unistore.Faults.churn_spec ~interval_ms:10.0 ~down_ms:10.0 ~rate:0.3 ())
          ~protected:[ 0 ] ()));
  let rows =
    List.concat_map
      (fun _ ->
        List.map
          (fun vql ->
            match Unistore.query store ~origin:0 vql with
            | Ok r -> row_set r
            | Error e -> Alcotest.failf "query failed: %s" e)
          workload)
      [ 1; 2 ]
  in
  (rows, Metrics.counter (Unistore.metrics store) "retry.attempt")

let recall ~reference rows =
  let rec inter a b =
    match (a, b) with
    | [], _ | _, [] -> 0
    | x :: xs, y :: ys ->
      let c = compare (x : string) y in
      if c = 0 then 1 + inter xs ys else if c < 0 then inter xs b else inter a ys
  in
  let matched, total =
    List.fold_left2
      (fun (m, t) ref_rows got -> (m + inter ref_rows got, t + List.length ref_rows))
      (0, 0) reference rows
  in
  float_of_int matched /. float_of_int total

let test_churn_recall () =
  (* Reference: the same deployment and workload with no faults. It
     must stay fault-free end to end, so the retry machinery costs
     nothing when nothing fails. *)
  let store = deploy_pubs () in
  Unistore.reset_metrics store;
  let reference =
    List.concat_map
      (fun _ ->
        List.map
          (fun vql ->
            match Unistore.query store ~origin:0 vql with
            | Ok r ->
              Alcotest.(check bool) "fault-free query complete" true r.Unistore.Report.complete;
              row_set r
            | Error e -> Alcotest.failf "query failed: %s" e)
          workload)
      [ 1; 2 ]
  in
  List.iter
    (fun counter ->
      Alcotest.(check int) ("fault-free reference: " ^ counter) 0
        (Metrics.counter (Unistore.metrics store) counter))
    [ "retry.attempt"; "retry.giveup"; "fault.partial" ];
  let rows, retries = churned_rows () in
  let r = recall ~reference rows in
  Alcotest.(check bool) (Printf.sprintf "churn forced retries (%d)" retries) true (retries > 0);
  Alcotest.(check bool)
    (Printf.sprintf "retries keep recall >= 0.95 under 30%% churn (got %.3f)" r)
    true (r >= 0.95)

(* ------------------------------------------------------------------ *)
(* Replica failover *)

(* Kill every replica of a key's group except one *while the lookup is
   in flight*: the first attempt dies with the primary, the retry fails
   over to the surviving replica. *)
let test_failover_mid_flight () =
  let config = { Config.default with replication = 3; timeout_ms = 200.0; retries = 2 } in
  let keys = random_words (Rng.create 8) 60 in
  let ov = build_overlay ~n:24 ~config ~keys () in
  let m = with_metrics ov in
  insert_all ov keys;
  Sim.run_all (Overlay.sim ov);
  let exercised = ref 0 in
  List.iteri
    (fun i k ->
      if i mod 6 = 0 then begin
        let holders = Overlay.Oracle.responsible ov k |> List.map (fun (n : Node.t) -> n.Node.id) in
        match List.filter (fun id -> id <> 0) holders with
        | [] -> ()
        | survivor :: victims when victims <> [] ->
          incr exercised;
          let got = ref None in
          Overlay.lookup ov ~origin:0 ~key:k ~k:(fun r -> got := Some r);
          (* Mid-flight: after the request left, before any delivery. *)
          Sim.schedule (Overlay.sim ov) ~delay:0.1 (fun () ->
              List.iter (Overlay.kill ov) victims);
          Sim.run_all (Overlay.sim ov);
          (match !got with
          | None -> Alcotest.failf "lookup for %S hung" k
          | Some r ->
            Alcotest.(check bool) (Printf.sprintf "lookup %S complete after failover" k) true
              r.Overlay.complete;
            Alcotest.(check bool) (Printf.sprintf "lookup %S found the item" k) true
              (r.Overlay.items <> []);
            ignore survivor);
          List.iter (Overlay.revive ov) victims;
          Sim.run_all (Overlay.sim ov)
        | _ -> ()
      end)
    keys;
  Alcotest.(check bool) "scenario exercised" true (!exercised >= 3);
  Alcotest.(check bool) "retries actually fired" true (Metrics.counter m "retry.attempt" > 0)

(* ------------------------------------------------------------------ *)
(* Self-healing repair *)

let test_repair_restores_replication () =
  let config = { Config.default with replication = 3 } in
  let keys = random_words (Rng.create 21) 80 in
  let ov = build_overlay ~n:52 ~config ~keys () in
  let m = with_metrics ov in
  insert_all ov keys;
  Sim.run_all (Overlay.sim ov);
  (* Leaf census: repair can only refill a depleted group if some other
     group has spares, so deplete a minimal group and check a donor
     exists. *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (n : Node.t) ->
      Hashtbl.replace groups n.Node.path
        (n.Node.id :: Option.value (Hashtbl.find_opt groups n.Node.path) ~default:[]))
    (Overlay.nodes ov);
  Alcotest.(check bool) "census has a spare donor" true
    (Hashtbl.fold (fun _ ids acc -> acc || List.length ids > 3) groups false);
  let victims =
    Hashtbl.fold
      (fun _ ids acc ->
        match acc with
        | [] when List.length ids = 3 && not (List.mem 0 ids) -> (
          match List.sort compare ids with a :: b :: _ -> [ a; b ] | _ -> [])
        | acc -> acc)
      groups []
  in
  Alcotest.(check bool) "found a group to deplete" true (victims <> []);
  List.iter (Overlay.kill ov) victims;
  let r = Repair.round ov in
  Sim.run_all (Overlay.sim ov);
  Alcotest.(check bool) "repair moved or adopted someone" true (r.Repair.adopted + r.Repair.moved > 0);
  check Alcotest.int "every depleted group repaired" 0 r.Repair.unrepaired;
  Alcotest.(check bool) "repair metrics recorded" true
    (Metrics.counter m "fault.repair.rounds" > 0);
  (* After repair + state transfer, every key is again held by at least
     two *alive* peers, and lookups stay exact. *)
  List.iter
    (fun k ->
      let alive_holders =
        Overlay.Oracle.responsible ov k
        |> List.filter (fun (n : Node.t) ->
               Overlay.Oracle.alive ov n.Node.id && Store.find n.Node.store k <> [])
      in
      if List.length alive_holders < 2 then
        Alcotest.failf "key %S alive-replicated on %d peers after repair" k
          (List.length alive_holders);
      let lr = await (Overlay.sim ov) (fun ret -> Overlay.lookup ov ~origin:0 ~key:k ~k:ret) in
      if not (lr.Overlay.complete && lr.Overlay.items <> []) then
        Alcotest.failf "lookup %S failed after repair" k)
    keys

(* ------------------------------------------------------------------ *)
(* Partition => exact partial-result accounting *)

(* Two-leaf overlay, the far leaf partitioned away: a whole-keyspace
   range reaches exactly half its addressed regions, and the result says
   so. Healing the partition restores full coverage. *)
let test_partition_completeness () =
  let config =
    { Config.default with replication = 2; timeout_ms = 100.0; retries = 1; retry_jitter = 0.0 }
  in
  let keys = [ "aaa"; "aab"; "aac"; "zzx"; "zzy"; "zzz" ] in
  let ov = build_overlay ~n:4 ~config ~keys () in
  insert_all ov keys;
  Sim.run_all (Overlay.sim ov);
  check Alcotest.int "two leaves" 1 (Overlay.depth ov);
  (* Peers not co-located with origin 0 go to partition group 1. *)
  let origin_node = Overlay.node ov 0 in
  let far_ids =
    Overlay.nodes ov
    |> List.filter (fun (n : Node.t) -> n.Node.path <> origin_node.Node.path)
    |> List.map (fun (n : Node.t) -> n.Node.id)
  in
  List.iter (fun id -> Net.set_partition (Overlay.net ov) id ~group:1) far_ids;
  let r = await (Overlay.sim ov) (fun k -> Overlay.range ov ~origin:0 ~lo:"a" ~hi:"{" ~k ()) in
  Alcotest.(check bool) "partitioned range is partial" false r.Overlay.complete;
  check (Alcotest.float 0.001) "coverage = regions reached / addressed" 0.5
    r.Overlay.completeness;
  (* Graceful degradation: the reachable half's rows are still served. *)
  Alcotest.(check bool) "local rows still served" true (r.Overlay.items <> []);
  Net.clear_partitions (Overlay.net ov);
  let r = await (Overlay.sim ov) (fun k -> Overlay.range ov ~origin:0 ~lo:"a" ~hi:"{" ~k ()) in
  Alcotest.(check bool) "healed range complete" true r.Overlay.complete;
  check (Alcotest.float 0.001) "full coverage after heal" 1.0 r.Overlay.completeness;
  check Alcotest.int "all six keys back" 6
    (List.length (List.sort_uniq compare (List.map (fun (i : Store.item) -> i.Store.key) r.Overlay.items)))

(* A peer across a partition looks failed to routing, as a dead one
   does: on the 32-peer publications deployment, the VLDB join from
   origin 5 with peer 28 partitioned off returns what it returns with
   peer 28 killed (every row, complete, within a second), instead of
   retrying into the partition until the request gives up. *)
let test_partition_routes_like_kill () =
  let run cut =
    let ds =
      Publications.generate (Rng.create 7) { Publications.default_params with typo_rate = 0.15 }
    in
    let store =
      Unistore.create ~sample_keys:(Publications.sample_keys ds)
        { Unistore.default_config with peers = 32; seed = 42 }
    in
    ignore (Unistore.load store ds.Publications.tuples);
    Unistore.set_stats_of_triples store ds.Publications.triples;
    Unistore.settle store;
    cut store;
    let vql =
      "SELECT ?name WHERE { (?a,'name',?name) (?a,'has_published',?t) (?p,'title',?t) \
       (?p,'published_in',?cn) (?c,'confname',?cn) (?c,'series',?s) FILTER ?s = 'VLDB' }"
    in
    match Unistore.query store ~origin:5 vql with
    | Ok r ->
      ( List.sort compare (List.map Binding.fingerprint r.Unistore_qproc.Engine.rows),
        r.Unistore_qproc.Engine.complete,
        r.Unistore_qproc.Engine.latency )
    | Error e -> Alcotest.failf "query failed: %s" e
  in
  let killed_rows, killed_complete, _ = run (fun s -> Unistore.kill_peers s [ 28 ]) in
  let cut_rows, cut_complete, cut_ms =
    run (fun s -> Net.set_partition (Overlay.net (Option.get (Unistore.pgrid s))) 28 ~group:1)
  in
  Alcotest.(check bool) "kill run complete" true killed_complete;
  Alcotest.(check bool) "kill run has rows" true (killed_rows <> []);
  Alcotest.(check bool) "partition run complete" true cut_complete;
  check Alcotest.(list string) "partition rows = kill rows" killed_rows cut_rows;
  if cut_ms > 1_000.0 then Alcotest.failf "partition run took %.1f simulated ms" cut_ms

(* ------------------------------------------------------------------ *)
(* Shower peer crash: no wedged range queries *)

(* A shower peer killed 2.5 ms into a range ([kill_shower_peer]):
   every hit goes straight to the origin and no peer holds state for
   another's hit, so the query terminates either complete or explicitly
   partial. *)
let test_shower_peer_crash_terminates () =
  let config = { Config.default with timeout_ms = 300.0; retries = 2 } in
  let keys = random_words (Rng.create 31) 160 in
  let ov = build_overlay ~n:64 ~config ~keys () in
  let m = with_metrics ov in
  insert_all ov keys;
  Sim.run_all (Overlay.sim ov);
  let tr = Trace.create () in
  Net.set_trace (Overlay.net ov) (Some tr);
  let got = ref None in
  let killed =
    kill_shower_peer ov tr ~origin:0 ~delay:2.5 ~finished:(fun () -> Option.is_some !got)
  in
  Overlay.range ov ~origin:0 ~lo:"a" ~hi:"{" ~k:(fun r -> got := Some r) ();
  Sim.run_all (Overlay.sim ov);
  (match !killed with
  | None -> Alcotest.fail "no shower peer killed mid-range (test setup broken)"
  | Some _ -> ());
  match !got with
  | None -> Alcotest.fail "range query wedged after a shower peer crashed"
  | Some r ->
    if not r.Overlay.complete then begin
      Alcotest.(check bool) "partial result marked" true (Metrics.counter m "fault.partial" > 0);
      Alcotest.(check bool) "coverage estimate strictly partial" true
        (r.Overlay.completeness < 1.0)
    end

(* ------------------------------------------------------------------ *)
(* Backoff timing *)

(* With jitter zeroed and adaptive deadlines off, the retry schedule is
   exact for every kind of pending request: timeouts at 100ms, then
   200ms, then 400ms — a request touching a region that is entirely
   dead gives up incomplete at precisely 700ms, after exactly two
   retries, reporting the coverage it did reach. *)
let backoff_kinds =
  let item i k = { Store.key = k; item_id = Printf.sprintf "b%d" i; payload = k; version = 0 } in
  [
    ("lookup", 0.0, fun ov ~keys:_ ~key -> await (Overlay.sim ov) (fun k ->
        Overlay.lookup ov ~origin:0 ~key ~k));
    ("range", 0.875, fun ov ~keys:_ ~key:_ -> await (Overlay.sim ov) (fun k ->
        Overlay.range ov ~origin:0 ~lo:"a" ~hi:"{" ~k ()));
    ( "bulk_insert",
      0.875,
      fun ov ~keys ~key:_ -> await (Overlay.sim ov) (fun k ->
          Overlay.bulk_insert ov ~origin:0 ~items:(List.mapi item keys) ~k) );
    ("multi_lookup", 0.875, fun ov ~keys ~key:_ -> snd (await (Overlay.sim ov) (fun k ->
        Overlay.multi_lookup ov ~origin:0 ~keys ~k)));
  ]

let test_backoff_schedule () =
  let config =
    {
      Config.default with
      replication = 2;
      timeout_ms = 100.0;
      retries = 2;
      retry_jitter = 0.0;
      adaptive_timeout = false;
    }
  in
  let keys = random_words (Rng.create 17) 40 in
  List.iter
    (fun (kind, coverage, run) ->
      let ov = build_overlay ~n:16 ~config ~keys () in
      insert_all ov keys;
      Sim.run_all (Overlay.sim ov);
      let key =
        List.find
          (fun k ->
            Overlay.Oracle.responsible ov k |> List.for_all (fun (n : Node.t) -> n.Node.id <> 0))
          keys
      in
      Overlay.Oracle.responsible ov key |> List.iter (fun (n : Node.t) -> Overlay.kill ov n.Node.id);
      let m = with_metrics ov in
      let r = run ov ~keys ~key in
      Alcotest.(check bool) (kind ^ " gives up incomplete") false r.Overlay.complete;
      check (Alcotest.float 0.001) (kind ^ " coverage") coverage r.Overlay.completeness;
      check (Alcotest.float 1.0) (kind ^ " gave up at 100+200+400 ms") 700.0 r.Overlay.latency;
      check Alcotest.int (kind ^ " retried twice") 2 (Metrics.counter m "retry.attempt"))
    backoff_kinds

(* The adaptive (EWMA) deadline policy — the default — gives up on a
   dead region strictly sooner than the fixed 100ms schedule: the
   lookups feeding the overlay's RTT estimators ran in a few simulated
   ms, so the learned deadline undercuts the configured ceiling. *)
let test_adaptive_deadline_beats_fixed () =
  let config =
    {
      Config.default with
      replication = 2;
      timeout_ms = 100.0;
      retries = 2;
      retry_jitter = 0.0;
    }
  in
  let keys = random_words (Rng.create 17) 40 in
  let ov = build_overlay ~n:16 ~config ~keys () in
  insert_all ov keys;
  Sim.run_all (Overlay.sim ov);
  (* Feed the RTT estimators with a few successful lookups first. *)
  List.iteri (fun i k -> if i < 8 then ignore (await (Overlay.sim ov) (fun ret ->
      Overlay.lookup ov ~origin:0 ~key:k ~k:ret))) keys;
  let key =
    List.find
      (fun k ->
        Overlay.Oracle.responsible ov k |> List.for_all (fun (n : Node.t) -> n.Node.id <> 0))
      keys
  in
  Overlay.Oracle.responsible ov key |> List.iter (fun (n : Node.t) -> Overlay.kill ov n.Node.id);
  let r = await (Overlay.sim ov) (fun k -> Overlay.lookup ov ~origin:0 ~key ~k) in
  Alcotest.(check bool) "gives up incomplete" false r.Overlay.complete;
  Alcotest.(check bool) "adaptive giveup strictly beats the fixed schedule" true
    (r.Overlay.latency < 700.0)

(* ------------------------------------------------------------------ *)
(* Trace-linter integration *)

(* A seeded churn scenario over real queries: every crash that ate a
   request is followed by a retry/failover/partial marker, so the
   fault-aware linter reports no errors — and the trace really does
   contain crash markers (the check has something to chew on). *)
let test_lint_clean_under_churn () =
  let store = deploy_pubs () in
  Unistore.reset_metrics store;
  let tr = Unistore.start_trace store in
  ignore
    (Unistore.inject_faults store
       (Unistore.Faults.spec ~seed:7 ~duration_ms:600_000.0
          ~churn:(Unistore.Faults.churn_spec ~interval_ms:10.0 ~down_ms:10.0 ~rate:0.3 ())
          ~protected:[ 0 ] ()));
  List.iter
    (fun vql ->
      match Unistore.query store ~origin:0 vql with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "query failed: %s" e)
    workload;
  Unistore.settle store;
  let crash_marks =
    List.filter
      (fun (e : Trace.event) -> Trace.is_fault e && String.equal e.Trace.kind "fault.crash")
      (Trace.events tr)
  in
  Alcotest.(check bool) "crash markers present in trace" true (crash_marks <> []);
  let ds = Unistore.lint_trace store ~against_metrics:true tr in
  if D.has_errors ds then
    Alcotest.failf "linter found errors under churn:\n%s" (D.render_all ds)

let () =
  Alcotest.run "unistore_faults"
    [
      ( "driver",
        [
          Alcotest.test_case "byte-identical replay" `Quick test_deterministic_replay;
          Alcotest.test_case "protected peers immune" `Quick test_protected_never_killed;
        ] );
      ( "robust-queries",
        [
          Alcotest.test_case "recall under 30% churn" `Quick test_churn_recall;
          Alcotest.test_case "replica failover mid-flight" `Quick test_failover_mid_flight;
          Alcotest.test_case "partition => exact partial coverage" `Quick
            test_partition_completeness;
          Alcotest.test_case "partitioned peer routes like a killed one" `Quick
            test_partition_routes_like_kill;
          Alcotest.test_case "a shower peer killed mid-range terminates" `Quick
            test_shower_peer_crash_terminates;
          Alcotest.test_case "backoff schedule exact" `Quick test_backoff_schedule;
          Alcotest.test_case "adaptive deadline beats fixed" `Quick
            test_adaptive_deadline_beats_fixed;
        ] );
      ( "repair",
        [ Alcotest.test_case "repair restores replication" `Quick test_repair_restores_replication ] );
      ( "lint",
        [ Alcotest.test_case "trace lints clean under churn" `Quick test_lint_clean_under_churn ] );
    ]
