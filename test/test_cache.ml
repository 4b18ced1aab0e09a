(* Tests for the multi-level caching subsystem (unistore_cache) and its
   integration: routing shortcuts in the P-Grid overlay, the query
   origin's result cache, and the gossiped statistics the optimizer
   plans from. *)

module Rng = Unistore_util.Rng
module Sim = Unistore_sim.Sim
module Latency = Unistore_sim.Latency
module Lru = Unistore_cache.Lru
module Shortcuts = Unistore_cache.Shortcuts
module Result_cache = Unistore_cache.Result_cache
module Statcache = Unistore_cache.Statcache
module Metrics = Unistore_obs.Metrics
module Config = Unistore_pgrid.Config
module Node = Unistore_pgrid.Node
module Overlay = Unistore_pgrid.Overlay
module Build = Unistore_pgrid.Build
module Gossip = Unistore_pgrid.Gossip
module Stat_sample = Unistore_triple.Stat_sample
module Keys = Unistore_triple.Keys
module Publications = Unistore_workload.Publications
module Qstats = Unistore_qproc.Qstats
module Cost = Unistore_qproc.Cost
module Optimizer = Unistore_qproc.Optimizer
module Physical = Unistore_qproc.Physical
module Parser = Unistore_vql.Parser
module Tracelint = Unistore_analysis.Tracelint
module Value = Unistore.Value
module Triple = Unistore.Triple

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Lru *)

let test_lru_eviction_order () =
  let t = Lru.create ~capacity:3 in
  Lru.put t "a" 1;
  Lru.put t "b" 2;
  Lru.put t "c" 3;
  check Alcotest.(option int) "find refreshes" (Some 1) (Lru.find t "a");
  Lru.put t "d" 4;
  (* "b" was least recently used once "a" was re-read. *)
  check Alcotest.(option int) "b evicted" None (Lru.peek t "b");
  check Alcotest.(option int) "a kept" (Some 1) (Lru.peek t "a");
  check Alcotest.int "still bounded" 3 (Lru.length t)

let test_lru_peek_no_refresh () =
  let t = Lru.create ~capacity:3 in
  Lru.put t "a" 1;
  Lru.put t "b" 2;
  Lru.put t "c" 3;
  ignore (Lru.peek t "a");
  Lru.put t "d" 4;
  check Alcotest.(option int) "peek did not save a" None (Lru.peek t "a");
  check Alcotest.(option int) "b survived" (Some 2) (Lru.peek t "b")

let test_lru_capacity_zero_disabled () =
  let t = Lru.create ~capacity:0 in
  Lru.put t "a" 1;
  check Alcotest.int "nothing stored" 0 (Lru.length t);
  check Alcotest.(option int) "nothing found" None (Lru.find t "a")

let test_lru_filter_and_shrink () =
  let t = Lru.create ~capacity:8 in
  List.iter (fun i -> Lru.put t (string_of_int i) i) [ 1; 2; 3; 4 ];
  let removed = Lru.filter_inplace t (fun _ v -> v mod 2 = 0) in
  check Alcotest.int "odd entries removed" 2 removed;
  check Alcotest.int "even entries kept" 2 (Lru.length t);
  Lru.set_capacity t 1;
  check Alcotest.int "shrunk to new capacity" 1 (Lru.length t);
  Lru.set_capacity t 0;
  check Alcotest.int "capacity 0 empties" 0 (Lru.length t)

(* Eviction and traversal must be deterministic functions of the
   operation history, never of hash-bucket order: [iter] visits in key
   order, and the eviction victim is the (used, key) minimum — the key
   breaks recency ties. *)
let test_lru_deterministic_order () =
  let keys = [ "delta"; "alpha"; "echo"; "charlie"; "bravo" ] in
  let t = Lru.create ~capacity:8 in
  List.iter (fun k -> Lru.put t k 0) keys;
  let visited = ref [] in
  Lru.iter t (fun k _ -> visited := k :: !visited);
  check
    Alcotest.(list string)
    "iter in key order"
    (List.sort String.compare keys)
    (List.rev !visited);
  (* Same entries inserted in a different order, then evicted down to
     one: the survivor set depends only on recency, and with recency
     forced equal by re-insertion the traversal stays key-ordered. *)
  let u = Lru.create ~capacity:8 in
  List.iter (fun k -> Lru.put u k 0) (List.rev keys);
  let visited_u = ref [] in
  Lru.iter u (fun k _ -> visited_u := k :: !visited_u);
  check Alcotest.(list string) "iter order is insertion-independent" (List.rev !visited)
    (List.rev !visited_u)

(* ------------------------------------------------------------------ *)
(* Shortcuts *)

let test_shortcuts_containment () =
  let t = Shortcuts.create ~capacity:4 in
  Shortcuts.learn t ~lo:"b" ~hi:(Some "d") ~peer:7;
  Shortcuts.learn t ~lo:"x" ~hi:None ~peer:9;
  check Alcotest.(option int) "inside region" (Some 7) (Shortcuts.find t ~key:"c");
  check Alcotest.(option int) "at lo (inclusive)" (Some 7) (Shortcuts.find t ~key:"b");
  check Alcotest.(option int) "at hi (exclusive)" None (Shortcuts.find t ~key:"d");
  check Alcotest.(option int) "below all regions" None (Shortcuts.find t ~key:"a");
  check Alcotest.(option int) "unbounded region" (Some 9) (Shortcuts.find t ~key:"zzz")

let test_shortcuts_invalidate_peer () =
  let t = Shortcuts.create ~capacity:4 in
  Shortcuts.learn t ~lo:"a" ~hi:(Some "g") ~peer:3;
  Shortcuts.learn t ~lo:"g" ~hi:(Some "m") ~peer:3;
  Shortcuts.learn t ~lo:"m" ~hi:(Some "p") ~peer:5;
  check Alcotest.int "both entries for 3 dropped" 2 (Shortcuts.invalidate_peer t 3);
  check Alcotest.(option int) "peer 3 forgotten" None (Shortcuts.find t ~key:"c");
  check Alcotest.(option int) "peer 5 untouched" (Some 5) (Shortcuts.find t ~key:"n")

let test_shortcuts_capacity_zero_disabled () =
  let t = Shortcuts.create ~capacity:0 in
  Shortcuts.learn t ~lo:"a" ~hi:None ~peer:1;
  check Alcotest.int "disabled" 0 (Shortcuts.length t);
  check Alcotest.(option int) "no hit" None (Shortcuts.find t ~key:"b")

(* ------------------------------------------------------------------ *)
(* Result cache *)

let test_result_cache_version_and_ttl () =
  let m = Metrics.create () in
  let t = Result_cache.create ~name:"c" ~metrics:m ~capacity:8 ~ttl_ms:100.0 () in
  Result_cache.put t ~key:"k" ~version:1 ~now:0.0 "v";
  check Alcotest.(option string) "hit under same version" (Some "v")
    (Result_cache.find t ~key:"k" ~version:1 ~now:50.0);
  check Alcotest.int "hit counted" 1 (Metrics.counter m "c.hit");
  check Alcotest.(option string) "newer version invalidates" None
    (Result_cache.find t ~key:"k" ~version:2 ~now:50.0);
  check Alcotest.int "stale_version counted" 1 (Metrics.counter m "c.stale_version");
  Result_cache.put t ~key:"k" ~version:2 ~now:50.0 "v2";
  check Alcotest.(option string) "TTL expires entries" None
    (Result_cache.find t ~key:"k" ~version:2 ~now:200.0);
  check Alcotest.int "stale_ttl counted" 1 (Metrics.counter m "c.stale_ttl");
  check Alcotest.(option string) "absent key" None
    (Result_cache.find t ~key:"nope" ~version:1 ~now:0.0);
  check Alcotest.int "miss counted" 1 (Metrics.counter m "c.miss")

let test_result_cache_mem_is_pure () =
  let m = Metrics.create () in
  let t = Result_cache.create ~name:"c" ~metrics:m ~capacity:2 ~ttl_ms:100.0 () in
  Result_cache.put t ~key:"a" ~version:1 ~now:0.0 "va";
  Result_cache.put t ~key:"b" ~version:1 ~now:0.0 "vb";
  check Alcotest.bool "mem true on current entry" true
    (Result_cache.mem t ~key:"a" ~version:1 ~now:10.0);
  check Alcotest.bool "mem false on version change" false
    (Result_cache.mem t ~key:"a" ~version:2 ~now:10.0);
  check Alcotest.bool "mem false past TTL" false
    (Result_cache.mem t ~key:"a" ~version:1 ~now:500.0);
  List.iter
    (fun c -> check Alcotest.int ("no counter " ^ c) 0 (Metrics.counter m ("c." ^ c)))
    [ "hit"; "miss"; "stale_version"; "stale_ttl" ];
  (* mem must not refresh recency: "a" (older) is still the eviction
     victim even after being probed. *)
  ignore (Result_cache.mem t ~key:"a" ~version:1 ~now:10.0);
  Result_cache.put t ~key:"d" ~version:1 ~now:10.0 "vd";
  check Alcotest.bool "a evicted despite mem probes" false
    (Result_cache.mem t ~key:"a" ~version:1 ~now:10.0);
  check Alcotest.bool "b survived" true (Result_cache.mem t ~key:"b" ~version:1 ~now:10.0)

(* ------------------------------------------------------------------ *)
(* Qcache: the query processor's view of the result cache *)

let test_qcache_access_and_bind () =
  let versions = Hashtbl.create 4 in
  let version_of attr = Option.value ~default:0 (Hashtbl.find_opt versions attr) in
  let t =
    Unistore_qproc.Qcache.create ~capacity:16 ~ttl_ms:1000.0 ~now:(fun () -> 0.0) ~version_of ()
  in
  let module Qcache = Unistore_qproc.Qcache in
  let access = Cost.AAttrValue ("age", Value.I 30) in
  let triples = [ Triple.make ~oid:"a1" ~attr:"age" (Value.I 30) ] in
  check Alcotest.bool "cold" false (Qcache.find_access t access <> None);
  Qcache.store_access t access triples;
  (match Qcache.find_access t access with
  | Some [ tr ] -> check Alcotest.string "right answer" "a1" tr.Triple.oid
  | _ -> Alcotest.fail "expected the stored answer");
  check Alcotest.bool "probe agrees" true (Qcache.cached_access t access);
  (* A write to the access's attribute kills the entry... *)
  Hashtbl.replace versions (Some "age") 1;
  check Alcotest.bool "invalidated by attr version" false (Qcache.find_access t access <> None);
  (* ...and ABroadcast (opaque predicate) is never cached. *)
  Qcache.store_access t Cost.ABroadcast triples;
  check Alcotest.bool "broadcast not cached" false (Qcache.find_access t Cost.ABroadcast <> None);
  (* Bind-join probes: per-key, same versioning. *)
  Qcache.store_bind t ~attr:(Some "name") ~key:"k1" triples;
  check Alcotest.bool "bind hit" true (Qcache.find_bind t ~attr:(Some "name") ~key:"k1" <> None);
  check Alcotest.bool "bind miss on other key" false
    (Qcache.find_bind t ~attr:(Some "name") ~key:"k2" <> None);
  Hashtbl.replace versions (Some "name") 7;
  check Alcotest.bool "bind invalidated by attr version" false
    (Qcache.find_bind t ~attr:(Some "name") ~key:"k1" <> None)

let test_qcache_access_keys_do_not_collide () =
  (* pp_access renders S "1" and I 1 identically; access_key must not. *)
  let a = Cost.AAttrValue ("x", Value.S "1") in
  let b = Cost.AAttrValue ("x", Value.I 1) in
  Alcotest.(check bool) "distinct keys for distinct accesses" true
    (Cost.access_key a <> Cost.access_key b);
  Alcotest.(check bool) "stable for equal accesses" true
    (Cost.access_key a = Cost.access_key (Cost.AAttrValue ("x", Value.S "1")))

(* ------------------------------------------------------------------ *)
(* Statcache *)

let summary ?(attr = "age") ?(region_lo = "r0") ?(peer = 1) ?(count = 10) ?(distinct = 5)
    ?(version = 1) ?(sampled_at = 0.0) ?(load = 0) () =
  {
    Statcache.attr;
    region_lo;
    peer;
    count;
    distinct;
    lo = Value.encode (Value.I 0);
    hi = Value.encode (Value.I 100);
    string_valued = false;
    version;
    sampled_at;
    load;
  }

let test_statcache_merge_newest_wins () =
  let t = Statcache.create () in
  check Alcotest.bool "first summary adopted" true (Statcache.merge t (summary ()));
  check Alcotest.bool "same (attr,region,version,time) ignored" false
    (Statcache.merge t (summary ~peer:2 ()));
  check Alcotest.int "replica deduped" 1 (Statcache.length t);
  check Alcotest.bool "higher version wins" true
    (Statcache.merge t (summary ~version:2 ~count:12 ()));
  check Alcotest.bool "stale version rejected" false
    (Statcache.merge t (summary ~version:1 ~count:99 ()));
  check Alcotest.bool "other region adopted" true (Statcache.merge t (summary ~region_lo:"r1" ()));
  check Alcotest.int "two regions held" 2 (Statcache.length t)

let test_statcache_versions_and_aggregate () =
  let t = Statcache.create () in
  ignore (Statcache.merge t (summary ~region_lo:"r0" ~version:2 ~count:10 ()));
  ignore (Statcache.merge t (summary ~region_lo:"r1" ~version:3 ~count:20 ()));
  ignore (Statcache.merge t (summary ~attr:"name" ~region_lo:"r0" ~version:5 ()));
  check Alcotest.int "attr_version sums regions" 5 (Statcache.attr_version t "age");
  check Alcotest.int "total_version sums all" 10 (Statcache.total_version t);
  (match Statcache.aggregate t ~now:0.0 ~half_life_ms:0.0 with
  | [ ("age", age); ("name", _) ] ->
    check (Alcotest.float 0.01) "counts sum across regions" 30.0 age.Statcache.a_count;
    check Alcotest.int "regions counted" 2 age.Statcache.a_regions
  | l -> Alcotest.failf "unexpected aggregate shape (%d attrs)" (List.length l));
  (* With decay, a summary one half-life old counts half. *)
  let t2 = Statcache.create () in
  ignore (Statcache.merge t2 (summary ~count:10 ~sampled_at:0.0 ()));
  match Statcache.aggregate t2 ~now:1000.0 ~half_life_ms:1000.0 with
  | [ ("age", age) ] ->
    check (Alcotest.float 0.01) "half-life halves the weight" 5.0 age.Statcache.a_count
  | _ -> Alcotest.fail "expected one aggregate"

(* ------------------------------------------------------------------ *)
(* Overlay integration: routing shortcuts *)

let random_words rng n =
  List.init n (fun _ ->
      String.init (4 + Rng.int rng 8) (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26)))

let build_overlay ?(n = 32) ?(seed = 42) ?(drop = 0.0) ?(config = Config.default) ~keys () =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let latency = Latency.create (Latency.Constant 1.0) ~n ~rng in
  Build.oracle sim ~latency ~rng ~drop ~config ~n ~sample_keys:keys ~balanced:false ()

let insert_all ov keys =
  List.iteri
    (fun i k ->
      let origin = i mod Overlay.node_count ov in
      let r =
        Overlay.insert_sync ov ~origin ~key:k ~item_id:(Printf.sprintf "id%d" i) ~payload:k ()
      in
      if not r.Overlay.complete then Alcotest.failf "insert of %S incomplete" k)
    keys

let test_overlay_shortcut_second_lookup_is_direct () =
  let rng = Rng.create 11 in
  let keys = List.sort_uniq compare (random_words rng 20) in
  let config = { Config.default with shortcut_capacity = 64 } in
  let ov = build_overlay ~n:32 ~config ~keys () in
  insert_all ov keys;
  let m = Metrics.create () in
  Overlay.set_metrics ov (Some m);
  (* First pass learns (region -> peer) from the Found replies (a few
     regions are already known from insert Acks)... *)
  List.iter
    (fun k ->
      let r = Overlay.lookup_sync ov ~origin:0 ~key:k in
      Alcotest.(check bool) ("first lookup of " ^ k) true r.Overlay.complete)
    keys;
  Alcotest.(check bool) "regions learned" true (Metrics.counter m "cache.shortcut.learn" > 0);
  let hits_after_first_pass = Metrics.counter m "cache.shortcut.hit" in
  (* ...so the second pass goes to the responsible peer directly. *)
  List.iter
    (fun k ->
      let r = Overlay.lookup_sync ov ~origin:0 ~key:k in
      Alcotest.(check bool) ("repeat lookup of " ^ k) true r.Overlay.complete;
      if r.Overlay.hops > 1 then
        Alcotest.failf "repeat lookup of %S took %d hops (expected <= 1)" k r.Overlay.hops)
    keys;
  (* Keys the origin is itself responsible for resolve locally without
     consulting the cache, hence >= half rather than all. *)
  Alcotest.(check bool) "most repeat lookups hit a shortcut" true
    (Metrics.counter m "cache.shortcut.hit" - hits_after_first_pass >= List.length keys / 2)

let test_overlay_shortcut_dead_peer_invalidated () =
  let rng = Rng.create 12 in
  let keys = List.sort_uniq compare (random_words rng 20) in
  let config = { Config.default with shortcut_capacity = 64; replication = 3 } in
  let ov = build_overlay ~n:32 ~config ~keys () in
  insert_all ov keys;
  let m = Metrics.create () in
  Overlay.set_metrics ov (Some m);
  (* Find a key whose learned shortcut points away from the origin. *)
  let origin = 0 in
  List.iter (fun k -> ignore (Overlay.lookup_sync ov ~origin ~key:k)) keys;
  let shortcuts = (Overlay.node ov origin).Node.shortcuts in
  let key, victim =
    match
      List.filter_map
        (fun k ->
          match Shortcuts.find shortcuts ~key:k with
          | Some p when p <> origin -> Some (k, p)
          | _ -> None)
        keys
    with
    | kv :: _ -> kv
    | [] -> Alcotest.fail "no shortcut learned away from origin"
  in
  Overlay.kill ov victim;
  let r = Overlay.lookup_sync ov ~origin ~key in
  Alcotest.(check bool) "lookup survives dead shortcut target" true r.Overlay.complete;
  Alcotest.(check bool) "lookup still finds a replica" true (r.Overlay.items <> []);
  Alcotest.(check bool) "dead peer invalidated" true
    (Metrics.counter m "cache.shortcut.invalidate" > 0);
  (match Shortcuts.find shortcuts ~key with
  | Some p when p = victim -> Alcotest.fail "shortcut still points at the dead peer"
  | _ -> ());
  Overlay.revive ov victim

(* ------------------------------------------------------------------ *)
(* Gossip: anti-entropy and statistics spread under message loss *)

(* Under iid loss even the end-to-end retries can run out; the tests
   below are about gossip convergence, not insert reliability, so issue
   the operation until it is acknowledged. *)
let insert_all_lossy ov keys =
  List.iteri
    (fun i k ->
      let origin = i mod Overlay.node_count ov in
      let item_id = Printf.sprintf "id%d" i in
      let rec go attempts =
        let r = Overlay.insert_sync ov ~origin ~key:k ~item_id ~payload:k () in
        if not r.Overlay.complete then
          if attempts >= 10 then Alcotest.failf "insert of %S never acknowledged" k
          else go (attempts + 1)
      in
      go 1)
    keys

let test_anti_entropy_converges_under_loss () =
  let rng = Rng.create 13 in
  let keys = List.sort_uniq compare (random_words rng 30) in
  let config = { Config.default with replication = 4 } in
  let ov = build_overlay ~n:24 ~drop:0.2 ~config ~keys () in
  insert_all_lossy ov keys;
  let key = List.hd keys in
  let rec update attempts =
    let r =
      Overlay.update_sync ov ~origin:1 ~key ~item_id:"id0" ~payload:"fresh" ~version:5 ()
    in
    if not r.Overlay.complete then
      if attempts >= 10 then Alcotest.fail "update never acknowledged" else update (attempts + 1)
  in
  update 1;
  (* Rumor spreading under 20% loss can miss replicas; bounded
     anti-entropy rounds must reconcile the rest. *)
  let max_rounds = 20 in
  let rec converge round =
    if Gossip.staleness ov ~key ~item_id:"id0" ~version:5 = 0.0 then round
    else if round >= max_rounds then
      Alcotest.failf "replicas still stale after %d anti-entropy rounds" max_rounds
    else begin
      Gossip.anti_entropy_round ov;
      Sim.run_all (Overlay.sim ov);
      converge (round + 1)
    end
  in
  let rounds = converge 0 in
  Alcotest.(check bool) "bounded rounds" true (rounds <= max_rounds)

let test_stats_gossip_spreads_under_loss () =
  let rng = Rng.create 14 in
  let n = 24 in
  let keys =
    List.init 40 (fun i -> Keys.attr_value_key "age" (Value.I (20 + i)))
    @ random_words rng 10
  in
  let ov = build_overlay ~n ~drop:0.2 ~keys () in
  insert_all_lossy ov keys;
  for _ = 1 to 6 do
    Gossip.stats_round ov ~sample:Stat_sample.of_node;
    Sim.run_all (Overlay.sim ov)
  done;
  (* Every peer's statistics cache must have heard about "age" counts
     from (nearly) the whole key space, not only its own region. *)
  let total peer =
    match
      List.assoc_opt "age"
        (Statcache.aggregate (Overlay.node ov peer).Node.stat_cache ~now:0.0 ~half_life_ms:0.0)
    with
    | Some a -> a.Statcache.a_count
    | None -> 0.0
  in
  List.iter
    (fun peer ->
      let c = total peer in
      if c < 28.0 then
        Alcotest.failf "peer %d aggregates only %.0f of 40 age triples after 6 lossy rounds"
          peer c)
    [ 0; 5; 11; 17; 23 ]

(* ------------------------------------------------------------------ *)
(* Facade: gossiped statistics drive the optimizer *)

let make_store ?(peers = 48) ?(overlay = Unistore.Pgrid) ?(seed = 42)
    ?(cache = Unistore.default_cache_config) () =
  let rng = Rng.create 7 in
  let ds = Publications.generate rng { Publications.default_params with typo_rate = 0.0 } in
  let config = { Unistore.default_config with peers; overlay; seed; cache } in
  let store = Unistore.create ~sample_keys:(Publications.sample_keys ds) config in
  ignore (Unistore.load store ds.Publications.tuples);
  Unistore.set_stats_of_triples store ds.Publications.triples;
  Unistore.settle store;
  (store, ds)

let plan_queries =
  [
    "SELECT ?n,?age WHERE { (?a,'name',?n) (?a,'age',?age) FILTER ?age > 30 }";
    "SELECT ?n,?t WHERE { (?a,'name',?n) (?a,'has_published',?t) (?p,'title',?t) }";
    "SELECT ?t WHERE { (?p,'title',?t) (?p,'year',?y) FILTER ?y >= 2000 }";
  ]

(* The acceptance bound: plans built from gossiped statistics may not
   cost more than 2x the oracle-planned query when both are re-costed
   under the oracle's statistics (bulk accesses of every step — the
   part of the plan the statistics actually steer). *)
let test_gossiped_stats_plan_cost_bound () =
  let store, ds = make_store () in
  for _ = 1 to 4 do
    Unistore.gossip_stats_round store
  done;
  let gossiped =
    match Unistore.gossiped_stats store ~origin:3 with
    | Some st -> st
    | None -> Alcotest.fail "no gossiped statistics after 4 rounds"
  in
  Alcotest.(check bool) "gossiped stats see the dataset" true
    (gossiped.Qstats.total_triples > 0);
  let oracle = Qstats.of_triples ds.Publications.triples in
  let env = Cost.env_of_dht (Unistore.dht store) ~replication:Unistore.default_config.replication in
  let recost plan =
    List.fold_left
      (fun acc step ->
        acc +. Cost.objective (Cost.estimate_access env oracle step.Physical.access))
      0.0 plan.Physical.steps
  in
  List.iter
    (fun src ->
      let q = Parser.parse_exn src in
      let from_gossip = recost (Optimizer.plan env gossiped ~qgrams:true q) in
      let from_oracle = recost (Optimizer.plan env oracle ~qgrams:true q) in
      if from_gossip > 2.0 *. from_oracle +. 1e-9 then
        Alcotest.failf "gossip-planned cost %.2f exceeds 2x oracle-planned %.2f for %s"
          from_gossip from_oracle src)
    plan_queries

let test_facade_queries_run_on_gossiped_stats () =
  let store, _ = make_store ~peers:32 () in
  for _ = 1 to 4 do
    Unistore.gossip_stats_round store
  done;
  (* Results must match between a gossip-planned run and the oracle
     reference: statistics change plans, never answers. *)
  List.iter
    (fun src ->
      match Unistore.query store ~origin:5 src with
      | Error e -> Alcotest.failf "query failed on gossiped stats: %s" e
      | Ok r ->
        Alcotest.(check bool) ("complete: " ^ src) true r.Unistore.Report.complete)
    plan_queries

(* ------------------------------------------------------------------ *)
(* Facade: result cache end-to-end *)

let test_result_cache_e2e_invalidation () =
  let store, _ = make_store ~peers:32 () in
  for _ = 1 to 4 do
    Unistore.gossip_stats_round store
  done;
  let m = Unistore.metrics store in
  let src = "SELECT ?a,?v WHERE { (?a,'age',?v) FILTER ?v > 90 }" in
  let run () =
    match Unistore.query store ~origin:3 src with
    | Ok r -> r
    | Error e -> Alcotest.failf "query failed: %s" e
  in
  Metrics.clear m;
  let r1 = run () in
  check Alcotest.int "cold run misses" 0 (Metrics.counter m "cache.result.hit");
  Alcotest.(check bool) "cold run populates" true (Metrics.counter m "cache.result.miss" > 0);
  let before = Unistore.messages_sent store in
  let r2 = run () in
  Alcotest.(check bool) "repeat run hits" true (Metrics.counter m "cache.result.hit" > 0);
  check Alcotest.int "repeat run is free" before (Unistore.messages_sent store);
  check Alcotest.int "same answer from cache" (List.length r1.Unistore.Report.rows)
    (List.length r2.Unistore.Report.rows);
  (* A write touching the attribute bumps its version: the cached entry
     must die and the new row must appear. *)
  Alcotest.(check bool) "write lands" true
    (Unistore.insert_triple store (Triple.make ~oid:"cachetest" ~attr:"age" (Value.I 99)));
  let r3 = run () in
  check Alcotest.int "fresh run sees the write"
    (List.length r1.Unistore.Report.rows + 1)
    (List.length r3.Unistore.Report.rows);
  Alcotest.(check bool) "staleness observed" true
    (Metrics.counter m "cache.result.stale_version" > 0
    || Metrics.counter m "cache.result.miss" > 1)

let test_result_caches_are_per_origin () =
  let store, _ = make_store ~peers:32 () in
  let m = Unistore.metrics store in
  let src = "SELECT ?n WHERE { (?a,'name',?n) }" in
  Metrics.clear m;
  ignore (Unistore.query store ~origin:3 src);
  let hits_before = Metrics.counter m "cache.result.hit" in
  ignore (Unistore.query store ~origin:9 src);
  check Alcotest.int "another origin cannot hit a foreign cache" hits_before
    (Metrics.counter m "cache.result.hit")

let test_no_cache_config_disables_everything () =
  let store, _ = make_store ~peers:32 ~cache:Unistore.no_cache () in
  let m = Unistore.metrics store in
  let src = "SELECT ?n WHERE { (?a,'name',?n) }" in
  Metrics.clear m;
  ignore (Unistore.query store ~origin:3 src);
  ignore (Unistore.query store ~origin:3 src);
  check Alcotest.int "no result hits" 0 (Metrics.counter m "cache.result.hit");
  check Alcotest.int "no shortcut hits" 0 (Metrics.counter m "cache.shortcut.hit")

(* ------------------------------------------------------------------ *)
(* Engine: mutant downgrade is observable *)

let test_mutant_downgrade_counted () =
  let store, _ = make_store ~peers:16 ~overlay:Unistore.Chord_trie () in
  let m = Unistore.metrics store in
  Metrics.clear m;
  (match
     Unistore.query store ~origin:2 ~strategy:Unistore.Mutant
       "SELECT ?n WHERE { (?a,'name',?n) }"
   with
  | Ok r -> Alcotest.(check bool) "query still completes" true r.Unistore.Report.complete
  | Error e -> Alcotest.failf "downgraded query failed: %s" e);
  check Alcotest.int "downgrade counted once" 1 (Metrics.counter m "engine.mutant_downgrade")

(* ------------------------------------------------------------------ *)
(* Tracelint: monotone reads *)

let obs origin version = { Tracelint.origin; key = "k"; item_id = "i"; version }

let test_monotone_reads_flags_regression () =
  let diags = Tracelint.monotone_reads [ obs 1 2; obs 1 1 ] in
  (match diags with
  | [ d ] ->
    check Alcotest.string "code" "stale-read" d.Unistore.Diagnostic.code;
    Alcotest.(check bool) "is error" true (Unistore.Diagnostic.is_error d)
  | l -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length l));
  check Alcotest.int "monotone sequence clean" 0
    (List.length (Tracelint.monotone_reads [ obs 1 1; obs 1 2; obs 1 2 ]));
  check Alcotest.int "origins tracked independently" 0
    (List.length (Tracelint.monotone_reads [ obs 1 5; obs 2 1 ]));
  check Alcotest.int "regression after recovery still flagged" 1
    (List.length (Tracelint.monotone_reads [ obs 1 1; obs 1 3; obs 1 2 ]))

let test_facade_read_log_lints_clean () =
  let store, ds = make_store ~peers:32 () in
  (* Exact-match patterns compile to point lookups — the operation the
     read observer taps. Use a value that exists in the dataset. *)
  let age =
    match
      List.find_map
        (fun tr ->
          match tr with
          | { Triple.attr = "age"; value = Value.I v; _ } -> Some v
          | _ -> None)
        ds.Publications.triples
    with
    | Some v -> v
    | None -> Alcotest.fail "dataset has no age triple"
  in
  let src = Printf.sprintf "SELECT ?a WHERE { (?a,'age',%d) }" age in
  Unistore.record_reads store;
  ignore (Unistore.query store ~origin:4 src);
  ignore (Unistore.query store ~origin:7 src);
  Unistore.stop_recording_reads store;
  Alcotest.(check bool) "reads were recorded" true (Unistore.read_log store <> []);
  check Alcotest.int "healthy deployment has no stale reads" 0
    (List.length (Unistore.lint_reads store))

(* ------------------------------------------------------------------ *)
(* Memoised statistics sampling: the store generation and the memo it
   keys must never serve stale statistics. *)

module Store = Unistore_pgrid.Store
module Repair = Unistore_pgrid.Repair

(* Log segments go under the dune sandbox cwd and are removed after. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_log_dir name f =
  let dir = Filename.concat (Sys.getcwd ()) ("stat-memo-logs-" ^ name) in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let item ?(version = 0) key item_id = { Store.key; item_id; payload = key ^ "/" ^ item_id; version }

let generation_contract label backend =
  let s = Store.create ~backend ~name:"gen" () in
  check Alcotest.int (label ^ ": starts at 0") 0 (Store.generation s);
  let rises what f =
    let before = Store.generation s in
    ignore (f ());
    check Alcotest.int (Printf.sprintf "%s: %s adds one" label what) (before + 1) (Store.generation s)
  in
  let stays what f =
    let before = Store.generation s in
    ignore (f ());
    check Alcotest.int (Printf.sprintf "%s: %s leaves it" label what) before (Store.generation s)
  in
  List.iteri
    (fun i k -> rises "insert" (fun () -> Store.put s (item k (string_of_int i))))
    [ "A\000age\000i1"; "A\000age\000i2"; "A\000name\000sbo"; "O\000x"; "V\000y" ];
  rises "LWW update" (fun () -> Store.put s (item ~version:3 "A\000age\000i1" "0"));
  rises "stale put" (fun () -> Store.put s (item ~version:1 "A\000age\000i1" "0"));
  stays "find" (fun () -> Store.find s "A\000age\000i1");
  stays "range" (fun () -> Store.range s ~lo:"A" ~hi:"B");
  stays "with_prefix" (fun () -> Store.with_prefix s "A\000");
  stays "iter" (fun () -> Store.iter s ignore);
  stays "to_list" (fun () -> Store.to_list s);
  stays "digest" (fun () -> Store.digest s);
  stays "stats" (fun () -> Store.stats s);
  stays "size" (fun () -> Store.size s);
  rises "remove" (fun () -> Store.remove s ~key:"V\000y" ~item_id:"4");
  rises "remove of an absent item" (fun () -> Store.remove s ~key:"V\000y" ~item_id:"4");
  rises "filter_partition" (fun () -> Store.filter_partition s (fun i -> i.Store.key < "O"));
  rises "crash_restart" (fun () -> Store.crash_restart s);
  rises "insert after restart" (fun () -> Store.put s (item "A\000age\000i9" "9"));
  rises "clear" (fun () -> Store.clear s)

let test_store_generation_contract () =
  generation_contract "hash" Store.Hash;
  generation_contract "packed" Store.Packed;
  with_log_dir "contract" (fun dir -> generation_contract "log" (Store.Log { dir }));
  (* A log replay rebuilds the backend's index from the file: the
     facade's generation must keep rising across it, torn tail or not. *)
  with_log_dir "torn" (fun dir ->
      let s = Store.create ~backend:(Store.Log { dir }) ~name:"torn" () in
      for i = 0 to 19 do
        ignore (Store.put s (item (Printf.sprintf "A\000age\000i%02d" i) (string_of_int i)))
      done;
      Store.sync s;
      let before = Store.generation s in
      let recovered = Store.crash_restart ~keep_frac:0.5 s in
      Alcotest.(check bool) "torn tail lost items" true (recovered > 0 && recovered < 20);
      check Alcotest.int "crash_restart counts once" (before + 1) (Store.generation s))

let show_summary (s : Statcache.summary) =
  Printf.sprintf "%s@%S p%d count=%d distinct=%d lo=%S hi=%S str=%b v=%d at=%g load=%d" s.attr
    s.region_lo s.peer s.count s.distinct s.lo s.hi s.string_valued s.version s.sampled_at s.load

(* Sample every node the memoised way, then again cold (memo dropped,
   load mark rewound), and demand field-by-field equality plus current
   stamps. A write that forgot to move the generation shows up as a
   memoised sample that disagrees with the cold one. *)
let check_samples ov ~now step =
  List.iter
    (fun (nd : Node.t) ->
      let mark = nd.Node.served_mark in
      let load = nd.Node.served - mark in
      let memo = Stat_sample.of_node ~now nd in
      nd.Node.stat_memo <- Node.no_stat_memo;
      nd.Node.served_mark <- mark;
      let cold = Stat_sample.of_node ~now nd in
      let label what = Printf.sprintf "%s: peer %d %s" step nd.Node.id what in
      check
        Alcotest.(list string)
        (label "memoised = cold") (List.map show_summary cold) (List.map show_summary memo);
      let av_items =
        List.length
          (List.filter
             (fun (i : Store.item) -> String.starts_with ~prefix:"A\000" i.Store.key)
             (Store.to_list nd.Node.store))
      in
      check Alcotest.int (label "counts cover every A#v item") av_items
        (List.fold_left (fun n (s : Statcache.summary) -> n + s.count) 0 memo);
      let region_lo, _ = Node.region nd in
      List.iter
        (fun (s : Statcache.summary) ->
          check Alcotest.string (label "region_lo current") region_lo s.region_lo;
          check Alcotest.int (label "version = write epoch") nd.Node.write_epoch s.version;
          check (Alcotest.float 0.0) (label "sampled_at = now") now s.sampled_at;
          check Alcotest.int (label "load = served since last sample") load s.load)
        memo)
    (Overlay.nodes ov)

let test_memo_never_stale () =
  let rng = Rng.create 15 in
  let config = { Config.default with replication = 3 } in
  let ages = List.init 60 (fun i -> Keys.attr_value_key "age" (Value.I (18 + (i mod 45)))) in
  let names = List.map (fun w -> Keys.attr_value_key "name" (Value.S w)) (random_words rng 30) in
  (* Non-A#v keys the sampler must skip. *)
  let others = List.map (fun w -> "O\000" ^ w) (random_words rng 20) in
  let keys = ages @ names @ others in
  let ov = build_overlay ~n:52 ~config ~keys () in
  let sim = Overlay.sim ov in
  insert_all ov keys;
  Sim.run_all sim;
  let now = ref 0.0 in
  let step name =
    (* Lookups between samples move the served counters, so the load
       stamp is exercised too. *)
    for _ = 1 to 10 do
      let k = List.nth keys (Rng.int rng (List.length keys)) in
      ignore (Overlay.lookup_sync ov ~origin:(Rng.int rng 52) ~key:k)
    done;
    now := !now +. 1000.0;
    check_samples ov ~now:!now name
  in
  step "after load";
  step "unchanged";
  let fresh = List.init 8 (fun i -> Keys.attr_value_key "age" (Value.I (100 + i))) in
  List.iteri
    (fun i k ->
      let r = Overlay.insert_sync ov ~origin:(i mod 52) ~key:k ~item_id:(Printf.sprintf "new%d" i) ~payload:k () in
      if not r.Overlay.complete then Alcotest.failf "insert of %S incomplete" k)
    fresh;
  step "insert";
  let upd = List.nth ages 3 in
  let r = Overlay.update_sync ov ~origin:5 ~key:upd ~item_id:"id3" ~payload:"fresh" ~version:7 () in
  Alcotest.(check bool) "update acknowledged" true r.Overlay.complete;
  step "LWW update";
  List.iteri
    (fun i k -> ignore (Overlay.delete_sync ov ~origin:(i + 1) ~key:k ~item_id:(Printf.sprintf "id%d" (60 + i))))
    (List.filteri (fun i _ -> i < 5) names);
  step "delete";
  (* Repair rejoin: deplete a 3-member group; a spare peer migrates into
     it and drops its old region's items (filter_partition) before the
     state transfer lands. Sample in between, then after. *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (n : Node.t) ->
      Hashtbl.replace groups n.Node.path
        (n.Node.id :: Option.value (Hashtbl.find_opt groups n.Node.path) ~default:[]))
    (Overlay.nodes ov);
  let victims =
    Hashtbl.fold
      (fun _ ids acc ->
        match acc with
        | [] when List.length ids = 3 -> (
          match List.sort compare ids with a :: b :: _ -> [ a; b ] | _ -> [])
        | acc -> acc)
      groups []
  in
  Alcotest.(check bool) "found a group to deplete" true (victims <> []);
  List.iter (Overlay.kill ov) victims;
  let report = Repair.round ov in
  Alcotest.(check bool) "a spare peer migrated" true (report.Repair.moved > 0);
  check_samples ov ~now:!now "repair rejoin (partitioned)";
  Sim.run_all sim;
  step "repair rejoin (state transfer)";
  List.iter (Overlay.revive ov) victims;
  let victim =
    List.find
      (fun (nd : Node.t) -> Overlay.alive ov nd.Node.id && Store.with_prefix nd.Node.store "A\000" <> [])
      (Overlay.nodes ov)
  in
  ignore (Overlay.crash ov victim.Node.id);
  step "crash";
  Overlay.revive ov victim.Node.id;
  for _ = 1 to 4 do
    Gossip.anti_entropy_round ov;
    Sim.run_all sim
  done;
  step "restart + anti-entropy";
  let cleared =
    List.find
      (fun (nd : Node.t) -> Store.with_prefix nd.Node.store "A\000" <> [])
      (List.rev (Overlay.nodes ov))
  in
  Store.clear cleared.Node.store;
  step "clear"

(* Two back-to-back sampling passes over a fresh 128-peer publications
   deployment: the second finds every store unchanged, so it restamps
   the memo instead of re-scanning. Minor words, not time: the count is
   deterministic. *)
let test_sampling_allocation_guard () =
  let store, _ = make_store ~peers:128 () in
  let ov = Option.get (Unistore.pgrid store) in
  let pass () =
    let before = Gc.minor_words () in
    List.iter (fun nd -> ignore (Stat_sample.of_node ~now:0.0 nd)) (Overlay.nodes ov);
    Gc.minor_words () -. before
  in
  let first = pass () in
  let second = pass () in
  if second > 0.05 *. first then
    Alcotest.failf "second sampling pass allocated %.0f minor words, %.1f%% of the first's %.0f"
      second (100.0 *. second /. first) first

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "unistore_cache"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "peek does not refresh" `Quick test_lru_peek_no_refresh;
          Alcotest.test_case "capacity 0 disables" `Quick test_lru_capacity_zero_disabled;
          Alcotest.test_case "filter and shrink" `Quick test_lru_filter_and_shrink;
          Alcotest.test_case "deterministic traversal" `Quick test_lru_deterministic_order;
        ] );
      ( "shortcuts",
        [
          Alcotest.test_case "region containment" `Quick test_shortcuts_containment;
          Alcotest.test_case "invalidate peer" `Quick test_shortcuts_invalidate_peer;
          Alcotest.test_case "capacity 0 disables" `Quick test_shortcuts_capacity_zero_disabled;
        ] );
      ( "result_cache",
        [
          Alcotest.test_case "version and TTL invalidation" `Quick
            test_result_cache_version_and_ttl;
          Alcotest.test_case "mem is side-effect free" `Quick test_result_cache_mem_is_pure;
        ] );
      ( "qcache",
        [
          Alcotest.test_case "access + bind caching with versioning" `Quick
            test_qcache_access_and_bind;
          Alcotest.test_case "access keys do not collide" `Quick
            test_qcache_access_keys_do_not_collide;
        ] );
      ( "statcache",
        [
          Alcotest.test_case "merge newest-wins, replicas dedupe" `Quick
            test_statcache_merge_newest_wins;
          Alcotest.test_case "versions and decayed aggregation" `Quick
            test_statcache_versions_and_aggregate;
        ] );
      ( "overlay-shortcuts",
        [
          Alcotest.test_case "repeat lookups go direct" `Quick
            test_overlay_shortcut_second_lookup_is_direct;
          Alcotest.test_case "dead peers are invalidated" `Quick
            test_overlay_shortcut_dead_peer_invalidated;
        ] );
      ( "gossip",
        [
          Alcotest.test_case "anti-entropy converges under 20% loss" `Quick
            test_anti_entropy_converges_under_loss;
          Alcotest.test_case "statistics spread under 20% loss" `Quick
            test_stats_gossip_spreads_under_loss;
        ] );
      ( "gossiped-stats",
        [
          Alcotest.test_case "plan cost within 2x of oracle" `Quick
            test_gossiped_stats_plan_cost_bound;
          Alcotest.test_case "queries run on gossiped stats" `Quick
            test_facade_queries_run_on_gossiped_stats;
        ] );
      ( "result-cache-e2e",
        [
          Alcotest.test_case "hit, write, invalidate" `Quick test_result_cache_e2e_invalidation;
          Alcotest.test_case "caches are per-origin" `Quick test_result_caches_are_per_origin;
          Alcotest.test_case "no_cache disables everything" `Quick
            test_no_cache_config_disables_everything;
        ] );
      ( "engine",
        [ Alcotest.test_case "mutant downgrade counted" `Quick test_mutant_downgrade_counted ] );
      ( "memoised-sampling",
        [
          Alcotest.test_case "store generation contract" `Quick test_store_generation_contract;
          Alcotest.test_case "memo never serves stale statistics" `Quick test_memo_never_stale;
          Alcotest.test_case "second pass allocates <= 5% of the first" `Quick
            test_sampling_allocation_guard;
        ] );
      ( "tracelint",
        [
          Alcotest.test_case "monotone reads" `Quick test_monotone_reads_flags_regression;
          Alcotest.test_case "facade read log lints clean" `Quick
            test_facade_read_log_lints_clean;
        ] );
    ]
