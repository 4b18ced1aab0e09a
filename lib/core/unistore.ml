module Rng = Unistore_util.Rng
module Sim = Unistore_sim.Sim
module Latency = Unistore_sim.Latency
module Config = Unistore_pgrid.Config
module Build = Unistore_pgrid.Build
module Overlay = Unistore_pgrid.Overlay
module Gossip = Unistore_pgrid.Gossip
module Chord = Unistore_chord.Chord
module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple
module Dht = Unistore_triple.Dht
module Tstore = Unistore_triple.Tstore
module Qstats = Unistore_qproc.Qstats
module Engine = Unistore_qproc.Engine
module Physical = Unistore_qproc.Physical
module Report = Unistore_qproc.Engine
module Metrics = Unistore_obs.Metrics
module Profile = Unistore_obs.Profile
module Json = Unistore_obs.Json
module Statcache = Unistore_cache.Statcache
module Qcache = Unistore_qproc.Qcache
module Cps = Unistore_util.Cps

type overlay_kind = Pgrid | Chord_trie

type config = {
  peers : int;
  replication : int;
  seed : int;
  latency : Latency.model;
  drop : float;
  overlay : overlay_kind;
  qgram_index : bool;
  load_balanced : bool;
  cache : bool;
  store : Unistore_pgrid.Store.backend;
}

let default_config =
  {
    peers = 32;
    replication = 2;
    seed = 42;
    latency = Latency.Lan;
    drop = 0.0;
    overlay = Pgrid;
    qgram_index = true;
    load_balanced = true;
    cache = true;
    store = Unistore_pgrid.Store.Hash;
  }

(* The overlay a deployment runs on. *)
type substrate = On_pgrid of Overlay.t | On_chord of Chord.t

type t = {
  config : config;
  sim : Sim.t;
  dht : Dht.t;
  tstore : Tstore.t;
  substrate : substrate;
  metrics : Metrics.t;
  qcaches : (int, Qcache.t) Hashtbl.t;  (* per-origin result caches, lazily built *)
  write_versions : (string, int) Hashtbl.t;
  global_writes : int ref;
  read_log : Unistore_analysis.Tracelint.read_obs list ref;
  mutable stats : Qstats.t;
  mutable next_origin : int;
}

let create ?(sample_keys = []) config =
  let sim = Sim.create () in
  let rng = Rng.create config.seed in
  let latency = Latency.create config.latency ~n:config.peers ~rng in
  let substrate =
    match config.overlay with
    | Pgrid ->
      let pconfig =
        {
          Config.default with
          Config.replication = config.replication;
          shortcut_capacity = (if config.cache then Config.default.shortcut_capacity else 0);
          store_backend = config.store;
        }
      in
      On_pgrid
        (Build.oracle sim ~latency ~rng ~drop:config.drop ~config:pconfig ~n:config.peers
           ~sample_keys ~balanced:(not config.load_balanced) ())
    | Chord_trie ->
      let cconfig = { Chord.succ_list = max 2 config.replication } in
      On_chord (Chord.create sim ~latency ~rng ~drop:config.drop ~config:cconfig ~n:config.peers ())
  in
  let dht =
    match substrate with On_pgrid ov -> Dht.of_pgrid ov | On_chord c -> Dht.of_chord_trie c
  in
  let tstore = Tstore.create ~qgrams:config.qgram_index dht in
  let metrics = Metrics.create () in
  (match substrate with
  | On_pgrid ov -> Overlay.set_metrics ov (Some metrics)
  | On_chord c -> Chord.set_metrics c (Some metrics));
  {
    config;
    sim;
    dht;
    tstore;
    substrate;
    metrics;
    qcaches = Hashtbl.create 8;
    write_versions = Hashtbl.create 16;
    global_writes = ref 0;
    read_log = ref [];
    stats = Qstats.empty;
    next_origin = 0;
  }

let config t = t.config
let sim t = t.sim
let tstore t = t.tstore
let dht t = t.dht
let pgrid t = match t.substrate with On_pgrid ov -> Some ov | On_chord _ -> None

(* The result cache's invalidation version for an attribute (or for
   attribute-agnostic accesses, [None]): writes issued through this
   facade bump the local counters immediately; write epochs arriving
   with gossiped statistics ({!Statcache.attr_version}) cover writes
   this client never saw. *)
let version_of t ~origin attr =
  let gossiped =
    match t.dht.Dht.stat_gossip with
    | None -> 0
    | Some g -> (
      let sc = g.Dht.cache_of origin in
      match attr with
      | Some a -> Statcache.attr_version sc a
      | None -> Statcache.total_version sc)
  in
  match attr with
  | Some a -> gossiped + Option.value ~default:0 (Hashtbl.find_opt t.write_versions a)
  | None -> gossiped + !(t.global_writes)

(* Result caches are per query origin — a hit must mean {e this} client
   asked recently, not that any peer in the deployment did. *)
let result_cache t ~origin =
  if not t.config.cache then None
  else
    Some
      (match Hashtbl.find_opt t.qcaches origin with
      | Some c -> c
      | None ->
        let c =
          Qcache.create ~metrics:t.metrics
            ~now:(fun () -> Sim.now t.sim)
            ~version_of:(version_of t ~origin) ()
        in
        Hashtbl.add t.qcaches origin c;
        c)

let bump_write t attr =
  incr t.global_writes;
  match attr with
  | Some a ->
    Hashtbl.replace t.write_versions a
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.write_versions a))
  | None -> ()

let pick_origin t =
  let o = t.next_origin in
  t.next_origin <- (t.next_origin + 1) mod t.config.peers;
  o

(* The facade is the one layer that waits (DESIGN.md, "Execution
   model"): each public operation below awaits its asynchronous body
   exactly once, and falls back to [default] if the event queue drains
   before the body's continuation fires. *)
let await t ~default start =
  let result = Sim.await t.sim start (* srclint: allow blocking-wait *) in
  Option.value result ~default

let insert_triple t ?origin tr =
  let origin = match origin with Some o -> o | None -> pick_origin t in
  bump_write t (Some tr.Triple.attr);
  await t ~default:false (fun k -> Tstore.insert t.tstore ~origin tr ~k)

let insert_tuple t ?origin ~oid fields =
  let origin = match origin with Some o -> o | None -> pick_origin t in
  List.iter (fun (a, _) -> bump_write t (Some a)) fields;
  await t ~default:0 (fun k -> Tstore.insert_tuple t.tstore ~origin ~oid fields ~k)

let delete_triple t ?origin tr =
  let origin = match origin with Some o -> o | None -> pick_origin t in
  bump_write t (Some tr.Triple.attr);
  await t ~default:false (fun k -> Tstore.delete t.tstore ~origin tr ~k)

let update_value t ?origin ~oid ~attr ~old_value new_value =
  let origin = match origin with Some o -> o | None -> pick_origin t in
  bump_write t (Some attr);
  await t ~default:false (fun k ->
      Tstore.update_value t.tstore ~origin ~oid ~attr ~old_value new_value ~k)

(* How many origins' batches [load] keeps in flight at once. *)
let load_window = 8

(* Bulk load: assign each tuple its round-robin origin as before, then
   ship every origin's triples as one batched insert
   ({!Tstore.insert_bulk}), at most [load_window] origins at a time,
   instead of one routed exchange per index entry. When a batch comes
   back incomplete, that origin's slot of the window retries its triples
   one at a time. *)
let load t tuples =
  await t ~default:0 (fun k ->
      let groups = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun (oid, fields) ->
          let origin = pick_origin t in
          List.iter (fun (a, _) -> bump_write t (Some a)) fields;
          let triples = Triple.tuple_to_triples ~oid fields in
          match Hashtbl.find_opt groups origin with
          | Some r -> r := List.rev_append triples !r
          | None ->
            order := origin :: !order;
            Hashtbl.add groups origin (ref (List.rev triples)))
        tuples;
      let insert_one origin acc tr ~k =
        Tstore.insert t.tstore ~origin tr ~k:(fun ok -> k (if ok then acc + 1 else acc))
      in
      Cps.window load_window
        (fun origin ~k ->
          let triples = List.rev !(Hashtbl.find groups origin) in
          Tstore.insert_bulk t.tstore ~origin triples ~k:(fun ok ->
              if ok then k (List.length triples) else Cps.fold (insert_one origin) 0 triples ~k))
        (List.rev !order)
        ~k:(fun counts -> k (List.fold_left ( + ) 0 counts)))

let add_mapping t ?origin a b =
  let origin = match origin with Some o -> o | None -> pick_origin t in
  bump_write t None;
  await t ~default:false (fun k -> Tstore.add_mapping t.tstore ~origin a b ~k)

let set_stats_of_triples t triples = t.stats <- Qstats.of_triples triples
let stats t = t.stats

(* ------------------------------------------------------------------ *)
(* Gossiped statistics (level 3 of the caching subsystem)              *)

(* Age at which a gossiped summary's weight halves when the optimizer
   aggregates them. *)
let stats_half_life_ms = 120_000.0

let gossip_stats_round t =
  match t.dht.Dht.stat_gossip with
  | Some g ->
    g.Dht.round ();
    Sim.run_all t.sim (* srclint: allow blocking-wait *)
  | None -> ()

let gossiped_stats t ~origin =
  match t.dht.Dht.stat_gossip with
  | None -> None
  | Some g ->
    let sc = g.Dht.cache_of origin in
    if Statcache.length sc = 0 then None
    else
      Some
        (Qstats.of_summaries
           (Statcache.aggregate sc ~now:(Sim.now t.sim) ~half_life_ms:stats_half_life_ms))

(* The optimizer's statistics for a query from [origin]: what gossip has
   delivered there, falling back to the facade-held (oracle or flooded)
   statistics only when no summary has arrived yet. *)
let stats_for t ~origin =
  match gossiped_stats t ~origin with Some s -> s | None -> t.stats

type strategy = Engine.strategy = Centralized | Mutant

let drained what = Error (what ^ " did not finish: the event queue drained first")

let query t ?(origin = 0) ?strategy ?expand_mappings src =
  let stats = stats_for t ~origin in
  match Engine.parse_checked stats src with
  | Error e -> Error e
  | Ok q ->
    await t ~default:(drained "query") (fun k ->
        Engine.start t.tstore stats ~replication:t.config.replication
          ?cache:(result_cache t ~origin)
          ?strategy ?expand_mappings ~origin q
          ~k:(fun r -> k (Ok r)))

let explain t ?(origin = 0) ?expand_mappings src =
  let stats = stats_for t ~origin in
  match Engine.parse_checked stats src with
  | Error e -> Error e
  | Ok q ->
    await t ~default:(drained "explain") (fun k ->
        Engine.explain t.tstore stats ~replication:t.config.replication
          ?cache:(result_cache t ~origin)
          ?expand_mappings ~origin q
          ~k:(fun plan -> k (Ok plan)))

let pp_table = Engine.pp_table
let pp_plan = Physical.pp

let kill_peers t ids =
  List.iter
    (fun id ->
      match t.substrate with On_pgrid ov -> Overlay.kill ov id | On_chord c -> Chord.kill c id)
    ids

let revive_peers t ids =
  List.iter
    (fun id ->
      match t.substrate with On_pgrid ov -> Overlay.revive ov id | On_chord c -> Chord.revive c id)
    ids

let alive_peers t =
  match t.substrate with On_pgrid ov -> Unistore_sim.Net.Oracle.alive_peers (Overlay.net ov) | On_chord c -> Chord.Oracle.alive_peers c

let join_peer t ~id ~bootstrap =
  match t.substrate with On_pgrid ov -> Build.join ov ~id ~bootstrap | On_chord _ -> false

(* Scenario-driven fault injection (P-Grid only: the driver needs the
   overlay's network handle). The scenario fires as the caller advances
   the simulation; all its randomness comes from [spec.seed], never from
   the deployment's RNG, so queries replay identically with faults on. *)

module Faults = Unistore_sim.Faults

type faults = Unistore_pgrid.Message.t Faults.t

let inject_faults t spec =
  match t.substrate with
  | On_pgrid ov -> Some (Faults.inject (Overlay.net ov) spec)
  | On_chord _ -> None

module Repair = Unistore_pgrid.Repair

let repair_round t =
  match t.substrate with
  | On_pgrid ov ->
    let r = Repair.round ov in
    Sim.run_all t.sim (* srclint: allow blocking-wait *);
    Some r
  | On_chord _ -> None

let anti_entropy_round t =
  match t.substrate with
  | On_pgrid ov ->
    Gossip.anti_entropy_round ov;
    Sim.run_all t.sim (* srclint: allow blocking-wait *)
  | On_chord _ -> ()

(* Message-level tracing (paper section 3: results are "traceable,
   analyzable and (in limits) repeatable"). *)
let set_trace t tr =
  match t.substrate with
  | On_pgrid ov -> Unistore_sim.Net.set_trace (Overlay.net ov) tr
  | On_chord c -> Chord.set_trace c tr

let start_trace t =
  let tr = Unistore_sim.Trace.create () in
  set_trace t (Some tr);
  tr

let stop_trace t = set_trace t None

(* Metrics (the unified accounting layer: per-kind message counts from
   the network, hop/retry/fan-out histograms from the overlay, plus
   anything callers add). One registry per deployment, attached at
   creation — reading it is always safe. *)
let metrics t = t.metrics
let reset_metrics t = Metrics.clear t.metrics

(* Publish [store.bytes]/[store.items]/[store.log_bytes] gauges from
   the current per-peer stores (P-Grid only; the Chord baseline does
   not carry pluggable storage). *)
let refresh_store_gauges t =
  match t.substrate with On_pgrid ov -> Overlay.refresh_store_gauges ov | On_chord _ -> ()
let metrics_json t = Json.to_string (Metrics.to_json t.metrics)

(* Per-operator query profiling (EXPLAIN ANALYZE). *)
let profile ?query report = Engine.profile ?query report
let pp_profile = Profile.pp

let query_profiled t ?origin ?strategy ?expand_mappings src =
  match query t ?origin ?strategy ?expand_mappings src with
  | Error e -> Error e
  | Ok report -> Ok (report, Engine.profile ~query:src report)

let settle t = Sim.run_all t.sim (* srclint: allow blocking-wait *)
let messages_sent t = t.dht.Dht.total_sent ()
let now t = Sim.now t.sim

(* ------------------------------------------------------------------ *)
(* Heavy-traffic engine: open-loop load, per-peer queueing, adaptive
   balancing (lib/traffic + Overlay adaptive deadlines + Balance). *)

module Traffic = Unistore_traffic.Engine
module Traffic_schedule = Unistore_traffic.Schedule
module Hotkeys = Unistore_traffic.Hotkeys
module Balance = Unistore_pgrid.Balance

type balance_config = Adaptive | Static

let default_balance_config = Adaptive

(* The experimental baseline arm: fixed deadlines, no boosts. *)
let no_balancing = Static

type traffic_scenario = Steady_load | Flash_crowd | Diurnal_load

type traffic_config = {
  scenario : traffic_scenario;
  arrival_rate : float;  (* base offered load, queries/s *)
  peak : float;  (* flash-crowd peak multiplier (Flash_crowd only) *)
  traffic_duration_ms : float;
  traffic_warmup_ms : float;
  traffic_zipf_s : float;  (* key popularity skew *)
  service_ms : float;  (* per-peer service time (queueing model) *)
  traffic_seed : int;  (* workload stream seed, independent of [config.seed] *)
  balance : balance_config;
}

(* Gossip + balance control cadence of {!run_traffic}. *)
let balance_interval_ms = 1_000.0

let default_traffic_config =
  {
    scenario = Flash_crowd;
    arrival_rate = 120.0;
    peak = 10.0;
    traffic_duration_ms = 30_000.0;
    traffic_warmup_ms = 4_000.0;
    traffic_zipf_s = 1.1;
    service_ms = 3.0;
    traffic_seed = 0x7AF1C;
    balance = default_balance_config;
  }

type traffic_report = {
  engine : Traffic.report;
  results_digest : string;
      (* MD5 over every measured (seq, key, sorted item ids/versions):
         equal digests across arms = balancing changed performance, not
         answers *)
  retries : int;
  queue_msgs : int;  (* messages that passed a service queue *)
  queue_delayed : int;  (* of those, how many actually waited *)
  queue_p50_ms : float;  (* queueing-delay percentiles, measurement window *)
  queue_p99_ms : float;
  queue_max_ms : float;
  boosts_spawned : int;
  boosts_retired : int;
  hot_serves : int;  (* lookups answered by a boost replica *)
}

let histo_percentile t name p =
  match List.assoc_opt name (Metrics.histograms t.metrics) with
  | Some h when Unistore_obs.Histogram.count h > 0 -> Unistore_obs.Histogram.percentile h p
  | _ -> 0.0

(* Drive one open-loop traffic run against this deployment (P-Grid
   only: the queueing model and balancer live on the overlay's network).
   [keys] is the lookup key population; the caller loads the data first.
   The workload stream is seeded by [cfg.traffic_seed] alone, so two
   deployments driven with the same [cfg] — e.g. an adaptive arm and a
   [no_balancing] arm — face a byte-identical request sequence. *)
let run_traffic t ~keys cfg =
  match t.substrate with
  | On_chord _ -> invalid_arg "Unistore.run_traffic: P-Grid overlay required"
  | On_pgrid ov ->
    if List.is_empty keys then invalid_arg "Unistore.run_traffic: empty key population";
    let adaptive = cfg.balance = Adaptive in
    let pconfig =
      {
        (Overlay.config ov) with
        Config.adaptive_timeout = adaptive;
        hot_replication = adaptive;
        (* Patience is not the treatment variable: both arms get a
           generous retry budget so a transient backlog spike costs
           latency, never answers. Adaptive deadlines make retries
           *timely*; the budget makes them *sufficient*. *)
        retries = 6;
      }
    in
    Overlay.set_config ov pconfig;
    let net = Overlay.net ov in
    if cfg.service_ms > 0.0 then Unistore_sim.Net.set_service_all net ~ms:cfg.service_ms;
    let hotkeys = Hotkeys.create ~keys:(Array.of_list keys) ~s:cfg.traffic_zipf_s in
    let origins = Array.of_list (alive_peers t) in
    let span = cfg.traffic_duration_ms -. cfg.traffic_warmup_ms in
    let schedule =
      match cfg.scenario with
      | Steady_load -> Traffic_schedule.Steady
      | Flash_crowd ->
        (* Spike inside the measurement window: ramp up over 10% of it,
           then hold the peak until the arrival stream ends. The crowd
           is still raging when the window closes, so an arm that falls
           behind is caught red-handed: its backlog at stream end is
           exactly the throughput it failed to serve in-window. *)
        Traffic_schedule.Flash
          {
            peak = cfg.peak;
            at_ms = cfg.traffic_warmup_ms +. (0.3 *. span);
            ramp_ms = 0.1 *. span;
            hold_ms = 0.6 *. span;
          }
      | Diurnal_load -> Traffic_schedule.Diurnal { period_ms = span; trough = 0.3 }
    in
    let ecfg =
      {
        Traffic.rate_per_s = cfg.arrival_rate;
        schedule;
        duration_ms = cfg.traffic_duration_ms;
        warmup_ms = cfg.traffic_warmup_ms;
        seed = cfg.traffic_seed;
        control_interval_ms = balance_interval_ms;
      }
    in
    let outcomes : (int, string) Hashtbl.t = Hashtbl.create 1024 in
    let issue ~seq ~origin ~key ~k =
      Overlay.lookup ov ~origin ~key ~k:(fun (r : Overlay.result) ->
          let ids =
            List.map
              (fun (i : Unistore_pgrid.Store.item) ->
                Printf.sprintf "%s#%d" i.Unistore_pgrid.Store.item_id
                  i.Unistore_pgrid.Store.version)
              r.items
            |> List.sort String.compare
          in
          Hashtbl.replace outcomes seq
            (Printf.sprintf "%d:%s:%b:%s" seq key r.complete (String.concat "," ids));
          k { Traffic.ok = r.complete; items = List.length r.items })
    in
    let control ~now:_ =
      Metrics.incr t.metrics "traffic.control_rounds";
      (* Not [gossip_stats_round]: the facade wrapper drains the event
         queue ([Sim.run_all]), which must not happen from inside the
         running simulation — it would swallow the open-loop arrival
         stream in one gulp. The raw round just enqueues messages. *)
      Gossip.stats_round ov ~sample:Unistore_triple.Stat_sample.of_node;
      if adaptive then ignore (Balance.round ov)
    in
    let on_warmup () =
      Metrics.reset_histograms ~prefix:"queue." t.metrics;
      Metrics.reset_histograms ~prefix:"overlay." t.metrics
    in
    let engine = Traffic.run ~sim:t.sim ~origins ~hotkeys ~on_warmup ~control ~issue ecfg in
    let buf = Buffer.create (64 * engine.Traffic.offered) in
    for seq = 0 to engine.Traffic.offered - 1 do
      match Hashtbl.find_opt outcomes seq with
      | Some line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n'
      | None -> Buffer.add_string buf (Printf.sprintf "%d:lost\n" seq)
    done;
    {
      engine;
      results_digest = Digest.to_hex (Digest.string (Buffer.contents buf));
      retries = Metrics.counter t.metrics "overlay.resend";
      queue_msgs = Metrics.counter t.metrics "queue.msgs";
      queue_delayed = Metrics.counter t.metrics "queue.delayed";
      queue_p50_ms = histo_percentile t "queue.wait_ms" 50.0;
      queue_p99_ms = histo_percentile t "queue.wait_ms" 99.0;
      queue_max_ms = histo_percentile t "queue.wait_ms" 100.0;
      boosts_spawned = Metrics.counter t.metrics "balance.spawned";
      boosts_retired = Metrics.counter t.metrics "balance.retired";
      hot_serves = Metrics.counter t.metrics "balance.hot_serve";
    }

(* ------------------------------------------------------------------ *)
(* Static analysis (lib/analysis): semantic query checking, trace
   linting and overlay auditing, surfaced through the facade. *)

module Diagnostic = Unistore_analysis.Diagnostic
module Semantic = Unistore_analysis.Semantic
module Tracelint = Unistore_analysis.Tracelint
module Audit = Unistore_analysis.Audit
module Protocol = Unistore_analysis.Protocol

let check t ?(origin = 0) src =
  Semantic.analyze_string ~catalog:(Engine.catalog_of_stats (stats_for t ~origin)) src
  |> Result.map snd

(* Read observations for the monotone-reads (cache staleness) lint. *)

let record_reads t =
  match t.substrate with
  | On_chord _ -> ()
  | On_pgrid ov ->
    Overlay.set_read_observer ov
      (Some
         (fun ~origin items ->
           List.iter
             (fun (i : Unistore_pgrid.Store.item) ->
               t.read_log :=
                 {
                   Tracelint.origin;
                   key = i.Unistore_pgrid.Store.key;
                   item_id = i.Unistore_pgrid.Store.item_id;
                   version = i.Unistore_pgrid.Store.version;
                 }
                 :: !(t.read_log))
             items))

let stop_recording_reads t =
  match t.substrate with On_chord _ -> () | On_pgrid ov -> Overlay.set_read_observer ov None

let read_log t = List.rev !(t.read_log)
let lint_reads t = Tracelint.monotone_reads (read_log t)

let audit t = match t.substrate with On_pgrid ov -> Audit.pgrid ov | On_chord c -> Audit.chord c

let lint_trace t ?allowed_revisits ?(against_metrics = false) tr =
  let rules =
    match t.substrate with On_pgrid _ -> Tracelint.pgrid_rules | On_chord _ -> Tracelint.chord_rules
  in
  let metrics = if against_metrics then Some t.metrics else None in
  Tracelint.lint ?allowed_revisits ?metrics ~rules tr
