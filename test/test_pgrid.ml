(* Tests for the P-Grid overlay (unistore_pgrid). *)

open Unistore_util
module Sim = Unistore_sim.Sim
module Latency = Unistore_sim.Latency
module Net = Unistore_sim.Net
module Store = Unistore_pgrid.Store
module Node = Unistore_pgrid.Node
module Config = Unistore_pgrid.Config
module Message = Unistore_pgrid.Message
module Overlay = Unistore_pgrid.Overlay
module Build = Unistore_pgrid.Build
module Gossip = Unistore_pgrid.Gossip

let check = Alcotest.check

let item ?(version = 0) key item_id payload = { Store.key; item_id; payload; version }

(* ------------------------------------------------------------------ *)
(* Store *)

let test_store_put_find () =
  let s = Store.create () in
  ignore (Store.put s (item "k1" "a" "p1"));
  ignore (Store.put s (item "k1" "b" "p2"));
  ignore (Store.put s (item "k2" "c" "p3"));
  check Alcotest.int "size" 3 (Store.size s);
  check Alcotest.int "two under k1" 2 (List.length (Store.find s "k1"));
  check Alcotest.int "none under k3" 0 (List.length (Store.find s "k3"))

let test_store_versions () =
  let s = Store.create () in
  ignore (Store.put s (item ~version:1 "k" "a" "v1"));
  Alcotest.(check bool) "newer wins" true (Store.put s (item ~version:2 "k" "a" "v2"));
  Alcotest.(check bool) "stale rejected" false (Store.put s (item ~version:1 "k" "a" "old"));
  (match Store.find s "k" with
  | [ i ] ->
    check Alcotest.string "payload" "v2" i.Store.payload;
    check Alcotest.int "version" 2 i.Store.version
  | l -> Alcotest.failf "expected 1 item, got %d" (List.length l));
  check Alcotest.int "no growth" 1 (Store.size s)

let test_store_equal_version_idempotent () =
  let s = Store.create () in
  ignore (Store.put s (item ~version:1 "k" "a" "v1"));
  Alcotest.(check bool) "equal version accepted (idempotent retry)" true
    (Store.put s (item ~version:1 "k" "a" "v1"));
  check Alcotest.int "still one" 1 (Store.size s)

let test_store_range () =
  let s = Store.create () in
  List.iter (fun k -> ignore (Store.put s (item k k k))) [ "a"; "b"; "c"; "d"; "e" ];
  let got = Store.range s ~lo:"b" ~hi:"d" |> List.map (fun i -> i.Store.key) in
  check Alcotest.(list string) "inclusive range" [ "b"; "c"; "d" ] got;
  check Alcotest.(list string) "empty range" []
    (Store.range s ~lo:"x" ~hi:"z" |> List.map (fun i -> i.Store.key))

let test_store_prefix () =
  let s = Store.create () in
  List.iter (fun k -> ignore (Store.put s (item k k k))) [ "app"; "apple"; "apricot"; "banana" ];
  let got = Store.with_prefix s "ap" |> List.map (fun i -> i.Store.key) in
  check Alcotest.(list string) "prefix" [ "app"; "apple"; "apricot" ] got

let test_store_remove () =
  let s = Store.create () in
  ignore (Store.put s (item "k" "a" "p"));
  ignore (Store.put s (item "k" "b" "q"));
  Store.remove s ~key:"k" ~item_id:"a";
  check Alcotest.int "one left" 1 (Store.size s);
  Store.remove s ~key:"k" ~item_id:"b";
  check Alcotest.int "empty" 0 (Store.size s);
  check Alcotest.int "no entry" 0 (List.length (Store.find s "k"))

let test_store_partition () =
  let s = Store.create () in
  List.iter (fun k -> ignore (Store.put s (item k k k))) [ "a"; "b"; "c"; "d" ];
  let removed = Store.filter_partition s (fun i -> i.Store.key <= "b") in
  check Alcotest.int "kept" 2 (Store.size s);
  check Alcotest.int "removed" 2 (List.length removed)

let test_store_digest () =
  let s = Store.create () in
  ignore (Store.put s (item ~version:3 "k" "a" "p"));
  check
    Alcotest.(list (triple string string int))
    "digest" [ ("k", "a", 3) ] (Store.digest s)

(* ------------------------------------------------------------------ *)
(* Node *)

let test_node_path_refs () =
  let n = Node.create 0 in
  Node.set_path n (Bitkey.of_string "101") [| "m"; "t"; "p" |];
  check Alcotest.int "refs levels" 3 (Array.length n.Node.refs);
  Node.add_ref n ~level:0 7 ~cap:3;
  Node.add_ref n ~level:0 8 ~cap:3;
  Node.add_ref n ~level:0 7 ~cap:3;
  check Alcotest.int "no dup" 2 (List.length (Node.refs_at n 0));
  Node.add_ref n ~level:0 9 ~cap:3;
  Node.add_ref n ~level:0 10 ~cap:3;
  check Alcotest.int "capped" 3 (List.length (Node.refs_at n 0));
  Node.remove_ref n 8;
  Alcotest.(check bool) "removed" false (List.mem 8 (Node.refs_at n 0))

let test_node_path_growth_preserves_refs () =
  let n = Node.create 0 in
  Node.set_path n (Bitkey.of_string "1") [| "m" |];
  Node.add_ref n ~level:0 5 ~cap:3;
  Node.extend n ~bit:false ~boundary:"t";
  check Alcotest.string "path grew" "10" (Bitkey.to_string n.Node.path);
  check Alcotest.(list int) "level0 kept" [ 5 ] (Node.refs_at n 0);
  check Alcotest.(list int) "level1 empty" [] (Node.refs_at n 1)

let test_node_region_covers () =
  (* Path "10" with boundaries m (level 0, taken >=) and t (level 1,
     taken <): region is [m, t). *)
  let n = Node.create 0 in
  Node.set_path n (Bitkey.of_string "10") [| "m"; "t" |];
  (match Node.region n with
  | lo, Some hi ->
    check Alcotest.string "lo" "m" lo;
    check Alcotest.string "hi" "t" hi
  | _ -> Alcotest.fail "expected bounded region");
  Alcotest.(check bool) "covers p" true (Node.covers n "p");
  Alcotest.(check bool) "covers lo bound" true (Node.covers n "m");
  Alcotest.(check bool) "hi bound excluded" false (Node.covers n "t");
  Alcotest.(check bool) "below" false (Node.covers n "a");
  Alcotest.(check bool) "above" false (Node.covers n "z");
  Alcotest.(check bool) "side at level 0" true (Node.key_side n ~level:0 "p");
  Alcotest.(check bool) "side at level 1" false (Node.key_side n ~level:1 "p")

(* ------------------------------------------------------------------ *)
(* Overlay: helpers *)

let random_words rng n =
  List.init n (fun _ ->
      String.init (4 + Rng.int rng 8) (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26)))

let build_overlay ?(n = 32) ?(seed = 42) ?(model = Latency.Constant 1.0) ?(drop = 0.0)
    ?(config = Config.default) ?(balanced = false) ~keys () =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let latency = Latency.create model ~n ~rng in
  let ov = Build.oracle sim ~latency ~rng ~drop ~config ~n ~sample_keys:keys ~balanced () in
  ov

let insert_all ov keys =
  List.iteri
    (fun i k ->
      let origin = i mod Overlay.node_count ov in
      let r = Overlay.insert_sync ov ~origin ~key:k ~item_id:(Printf.sprintf "id%d" i) ~payload:k () in
      if not r.Overlay.complete then Alcotest.failf "insert of %S incomplete" k)
    keys

(* ------------------------------------------------------------------ *)
(* Overlay tests *)

let test_oracle_invariants () =
  let rng = Rng.create 1 in
  let keys = random_words rng 200 in
  let ov = build_overlay ~n:64 ~keys () in
  check Alcotest.(list string) "invariants hold" [] (Build.check_invariants ov);
  Alcotest.(check bool) "depth sane" true (Overlay.depth ov >= 4 && Overlay.depth ov <= 16)

let test_oracle_balanced_invariants () =
  let ov = build_overlay ~n:30 ~balanced:true ~keys:[] () in
  check Alcotest.(list string) "invariants hold (balanced)" [] (Build.check_invariants ov)

let test_oracle_single_peer () =
  let ov = build_overlay ~n:1 ~keys:[] () in
  let r = Overlay.insert_sync ov ~origin:0 ~key:"k" ~item_id:"a" ~payload:"p" () in
  Alcotest.(check bool) "insert ok" true r.Overlay.complete;
  let r = Overlay.lookup_sync ov ~origin:0 ~key:"k" in
  check Alcotest.int "found" 1 (List.length r.Overlay.items);
  check Alcotest.int "zero hops" 0 r.Overlay.hops

let test_insert_lookup_roundtrip () =
  let rng = Rng.create 2 in
  let keys = List.sort_uniq compare (random_words rng 150) in
  let ov = build_overlay ~n:64 ~keys () in
  insert_all ov keys;
  let depth = Overlay.depth ov in
  List.iteri
    (fun i k ->
      let origin = (i * 7) mod 64 in
      let r = Overlay.lookup_sync ov ~origin ~key:k in
      if not r.Overlay.complete then Alcotest.failf "lookup %S incomplete" k;
      if List.length r.Overlay.items < 1 then Alcotest.failf "lookup %S found nothing" k;
      if r.Overlay.hops > depth then
        Alcotest.failf "lookup %S took %d hops > depth %d" k r.Overlay.hops depth)
    keys

let test_lookup_missing_key () =
  let ov = build_overlay ~n:16 ~keys:[] () in
  let r = Overlay.lookup_sync ov ~origin:0 ~key:"nothing-here" in
  Alcotest.(check bool) "complete" true r.Overlay.complete;
  check Alcotest.int "empty" 0 (List.length r.Overlay.items)

let test_replication_places_copies () =
  let config = { Config.default with replication = 3 } in
  let rng = Rng.create 3 in
  let keys = random_words rng 50 in
  let ov = build_overlay ~n:24 ~config ~keys () in
  insert_all ov keys;
  Sim.run_all (Overlay.sim ov);
  (* Every responsible peer should hold a copy. *)
  List.iter
    (fun k ->
      let holders =
        Overlay.responsible ov k
        |> List.filter (fun (nd : Node.t) -> Store.find nd.Node.store k <> [])
      in
      if List.length holders < 2 then
        Alcotest.failf "key %S replicated on %d peers" k (List.length holders))
    keys

let range_oracle keys ~lo ~hi = List.filter (fun k -> k >= lo && k <= hi) keys

let test_range_shower_correct () =
  let rng = Rng.create 4 in
  let keys = List.sort_uniq compare (random_words rng 120) in
  let ov = build_overlay ~n:48 ~keys () in
  insert_all ov keys;
  List.iter
    (fun (lo, hi) ->
      let expected = range_oracle keys ~lo ~hi in
      let r = Overlay.range_sync ov ~origin:5 ~strategy:Message.Shower ~lo ~hi () in
      Alcotest.(check bool) (Printf.sprintf "complete [%s,%s]" lo hi) true r.Overlay.complete;
      let got = List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare in
      check
        Alcotest.(list string)
        (Printf.sprintf "range [%s,%s]" lo hi)
        expected got)
    [ ("a", "e"); ("c", "czzz"); ("", "zzzz"); ("m", "m") ]

let test_range_sequential_correct () =
  let rng = Rng.create 5 in
  let keys = List.sort_uniq compare (random_words rng 100) in
  let ov = build_overlay ~n:32 ~keys () in
  insert_all ov keys;
  let lo = "b" and hi = "p" in
  let expected = range_oracle keys ~lo ~hi in
  let r = Overlay.range_sync ov ~origin:3 ~strategy:Message.Sequential ~lo ~hi () in
  Alcotest.(check bool) "complete" true r.Overlay.complete;
  let got = List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare in
  check Alcotest.(list string) "sequential = oracle" expected got

let test_range_strategies_agree () =
  let rng = Rng.create 6 in
  let keys = List.sort_uniq compare (random_words rng 80) in
  let ov = build_overlay ~n:32 ~keys () in
  insert_all ov keys;
  let norm r = List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare in
  let a = Overlay.range_sync ov ~origin:0 ~strategy:Message.Shower ~lo:"d" ~hi:"t" () in
  let b = Overlay.range_sync ov ~origin:0 ~strategy:Message.Sequential ~lo:"d" ~hi:"t" () in
  check Alcotest.(list string) "same answers" (norm a) (norm b)

let test_sequential_more_serial_latency () =
  let rng = Rng.create 7 in
  let keys = List.sort_uniq compare (random_words rng 200) in
  let ov = build_overlay ~n:64 ~model:(Latency.Constant 10.0) ~keys () in
  insert_all ov keys;
  let a = Overlay.range_sync ov ~origin:0 ~strategy:Message.Shower ~lo:"" ~hi:"zzzz" () in
  let b = Overlay.range_sync ov ~origin:0 ~strategy:Message.Sequential ~lo:"" ~hi:"zzzz" () in
  Alcotest.(check bool)
    (Printf.sprintf "sequential latency (%f) > shower (%f)" b.Overlay.latency a.Overlay.latency)
    true
    (b.Overlay.latency > a.Overlay.latency)

let test_budgeted_sequential_range () =
  let rng = Rng.create 61 in
  let keys = List.sort_uniq compare (random_words rng 120) in
  let ov = build_overlay ~n:32 ~keys () in
  insert_all ov keys;
  let budget = 7 in
  let r =
    Overlay.range_sync ov ~origin:2 ~strategy:Message.Sequential ~budget ~lo:"" ~hi:"zzzz" ()
  in
  Alcotest.(check bool) "complete" true r.Overlay.complete;
  let got = List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare in
  (* Exactly the [budget] smallest keys (key order = value order). *)
  let expected = List.filteri (fun i _ -> i < budget) keys in
  check Alcotest.(list string) "the smallest keys" expected got;
  (* Far fewer messages than the unbudgeted traversal. *)
  let m0 = Net.total_sent (Overlay.net ov) in
  ignore (Overlay.range_sync ov ~origin:2 ~strategy:Message.Sequential ~budget ~lo:"" ~hi:"zzzz" ());
  let budgeted = Net.total_sent (Overlay.net ov) - m0 in
  let m1 = Net.total_sent (Overlay.net ov) in
  ignore (Overlay.range_sync ov ~origin:2 ~strategy:Message.Sequential ~lo:"" ~hi:"zzzz" ());
  let full = Net.total_sent (Overlay.net ov) - m1 in
  Alcotest.(check bool)
    (Printf.sprintf "early stop saves messages (%d < %d)" budgeted full)
    true (budgeted < full);
  (* Budget + shower is rejected. *)
  (try
     ignore (Overlay.range_sync ov ~origin:0 ~strategy:Message.Shower ~budget:3 ~lo:"a" ~hi:"b" ());
     Alcotest.fail "expected invalid_arg"
   with Invalid_argument _ -> ())

(* A range the hop limit cuts short must say so: the regions beyond the
   limit are never reached, so the answer is partial (not complete with
   silently missing rows), and it is reported as soon as every reachable
   region answered — well before the first retry timeout, since a retry
   would hit the same wall. *)
let test_hop_limited_range_partial () =
  let keys = List.init 200 (Printf.sprintf "k%04d") in
  let ov = build_overlay ~n:64 ~keys () in
  insert_all ov keys;
  Sim.run_all (Overlay.sim ov);
  List.iter
    (fun (strategy, label, max_hops) ->
      Overlay.set_config ov { Config.default with max_hops };
      let r = Overlay.range_sync ov ~origin:0 ~strategy ~lo:"k0000" ~hi:"k0199" () in
      let n = List.length r.Overlay.items in
      Alcotest.(check bool) (Printf.sprintf "%s: the hop limit truncates (%d/200 rows)" label n)
        true (n < 200);
      Alcotest.(check bool) (label ^ ": reported incomplete") false r.Overlay.complete;
      Alcotest.(check bool)
        (Printf.sprintf "%s: completeness %.2f < 1" label r.Overlay.completeness)
        true (r.Overlay.completeness < 1.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: no retry waited out (%.1f ms)" label r.Overlay.latency)
        true
        (r.Overlay.latency < Config.default.Config.min_timeout_ms))
    [ (Message.Sequential, "sequential", 8); (Message.Shower, "shower", 3) ];
  Overlay.set_config ov Config.default;
  let r = Overlay.range_sync ov ~origin:0 ~lo:"k0000" ~hi:"k0199" () in
  Alcotest.(check bool) "default hop limit: complete" true r.Overlay.complete;
  check Alcotest.int "default hop limit: every row" 200 (List.length r.Overlay.items)

let test_prefix_search () =
  let keys = [ "apple"; "application"; "apply"; "banana"; "appetite"; "zebra" ] in
  let ov = build_overlay ~n:16 ~keys () in
  insert_all ov keys;
  let r = Overlay.prefix_sync ov ~origin:1 ~prefix:"appl" in
  Alcotest.(check bool) "complete" true r.Overlay.complete;
  let got = List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare in
  check Alcotest.(list string) "prefix matches" [ "apple"; "application"; "apply" ] got

let test_broadcast_probe () =
  let rng = Rng.create 8 in
  let keys = List.sort_uniq compare (random_words rng 60) in
  let ov = build_overlay ~n:32 ~keys () in
  insert_all ov keys;
  let r = Overlay.broadcast_sync ov ~origin:2 ~pred:(fun i -> String.length i.Store.key > 6) in
  Alcotest.(check bool) "complete" true r.Overlay.complete;
  let expected = List.filter (fun k -> String.length k > 6) keys in
  let got = List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare in
  check Alcotest.(list string) "probe results" expected got;
  (* The shower visits one replica per leaf; with replication 2-3 over 32
     peers that is at least 32/4 leaves. *)
  Alcotest.(check bool)
    (Printf.sprintf "visits one peer per leaf (%d)" r.Overlay.peers_hit)
    true
    (r.Overlay.peers_hit >= 8)

let test_hops_logarithmic () =
  let rng = Rng.create 9 in
  let keys = random_words rng 400 in
  let ov = build_overlay ~n:256 ~keys () in
  insert_all ov keys;
  let hops = ref [] in
  List.iteri
    (fun i k ->
      if i mod 4 = 0 then begin
        let r = Overlay.lookup_sync ov ~origin:(i mod 256) ~key:k in
        hops := float_of_int r.Overlay.hops :: !hops
      end)
    keys;
  let s = Stats.summarize !hops in
  (* log2 256 = 8; with replication-2 leaves the trie depth is ~7-9. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean hops %.2f within logarithmic budget" s.Stats.mean)
    true
    (s.Stats.mean <= 10.0)

let test_failure_lookup_retries () =
  let config = { Config.default with replication = 3; retries = 3; timeout_ms = 500.0 } in
  let rng = Rng.create 10 in
  let keys = random_words rng 60 in
  let ov = build_overlay ~n:32 ~config ~keys () in
  insert_all ov keys;
  Sim.run_all (Overlay.sim ov);
  (* Kill 20% of peers, excluding origin 0. *)
  let victims = [ 3; 7; 11; 19; 23; 29 ] in
  List.iter (Overlay.kill ov) victims;
  let ok = ref 0 and total = ref 0 in
  List.iteri
    (fun i k ->
      if i mod 2 = 0 then begin
        incr total;
        let r = Overlay.lookup_sync ov ~origin:0 ~key:k in
        if r.Overlay.complete && r.Overlay.items <> [] then incr ok
      end)
    keys;
  let frac = float_of_int !ok /. float_of_int !total in
  Alcotest.(check bool)
    (Printf.sprintf "survival rate %.2f >= 0.8" frac)
    true (frac >= 0.8)

let test_lookups_under_message_loss () =
  (* 5% iid message loss: end-to-end retries keep lookups exact. *)
  let config = { Config.default with timeout_ms = 300.0; retries = 4 } in
  let rng = Rng.create 87 in
  let keys = List.sort_uniq compare (random_words rng 60) in
  let ov = build_overlay ~n:32 ~drop:0.05 ~config ~keys () in
  (* Inserts may need retries too; insist they complete. *)
  List.iteri
    (fun i k ->
      let r = Overlay.insert_sync ov ~origin:(i mod 32) ~key:k ~item_id:(string_of_int i) ~payload:k () in
      if not r.Overlay.complete then Alcotest.failf "insert %S failed under loss" k)
    keys;
  Sim.run_all (Overlay.sim ov);
  let ok = ref 0 in
  List.iteri
    (fun i k ->
      let r = Overlay.lookup_sync ov ~origin:((i * 3) mod 32) ~key:k in
      if r.Overlay.complete && r.Overlay.items <> [] then incr ok)
    keys;
  Alcotest.(check bool)
    (Printf.sprintf "lookups survive 5%% loss (%d/%d)" !ok (List.length keys))
    true
    (!ok >= List.length keys * 9 / 10)

let test_update_and_gossip_convergence () =
  let config = { Config.default with replication = 4 } in
  let ov = build_overlay ~n:16 ~config ~keys:[ "k" ] () in
  let r = Overlay.insert_sync ov ~origin:0 ~key:"k" ~item_id:"x" ~payload:"v0" () in
  Alcotest.(check bool) "insert ok" true r.Overlay.complete;
  Sim.run_all (Overlay.sim ov);
  let r = Overlay.update_sync ov ~origin:1 ~key:"k" ~item_id:"x" ~payload:"v1" ~version:1 () in
  Alcotest.(check bool) "update ok" true r.Overlay.complete;
  Sim.run_all (Overlay.sim ov);
  (* Rumor may have missed replicas; run anti-entropy to convergence. *)
  let rec converge n =
    if n > 10 then ()
    else begin
      Gossip.anti_entropy_round ov;
      Sim.run_all (Overlay.sim ov);
      if Gossip.staleness ov ~key:"k" ~item_id:"x" ~version:1 > 0.0 then converge (n + 1)
    end
  in
  converge 0;
  check (Alcotest.float 1e-9) "fully converged" 0.0
    (Gossip.staleness ov ~key:"k" ~item_id:"x" ~version:1);
  (* Readers see the new version. *)
  let r = Overlay.lookup_sync ov ~origin:5 ~key:"k" in
  (match r.Overlay.items with
  | [ i ] -> check Alcotest.string "new payload" "v1" i.Store.payload
  | l -> Alcotest.failf "expected 1 item, got %d" (List.length l))

let test_stale_update_ignored () =
  let ov = build_overlay ~n:8 ~keys:[ "k" ] () in
  ignore (Overlay.insert_sync ov ~origin:0 ~key:"k" ~item_id:"x" ~payload:"v5" ~version:5 ());
  ignore (Overlay.update_sync ov ~origin:1 ~key:"k" ~item_id:"x" ~payload:"v3" ~version:3 ());
  Sim.run_all (Overlay.sim ov);
  let r = Overlay.lookup_sync ov ~origin:2 ~key:"k" in
  match r.Overlay.items with
  | [ i ] -> check Alcotest.string "kept newer" "v5" i.Store.payload
  | l -> Alcotest.failf "expected 1 item, got %d" (List.length l)

let test_delete () =
  let config = { Config.default with replication = 3 } in
  let ov = build_overlay ~n:16 ~config ~keys:[ "k1"; "k2" ] () in
  ignore (Overlay.insert_sync ov ~origin:0 ~key:"k1" ~item_id:"a" ~payload:"p1" ());
  ignore (Overlay.insert_sync ov ~origin:1 ~key:"k1" ~item_id:"b" ~payload:"p2" ());
  Sim.run_all (Overlay.sim ov);
  let r = Overlay.delete_sync ov ~origin:5 ~key:"k1" ~item_id:"a" in
  Alcotest.(check bool) "delete completes" true r.Overlay.complete;
  Sim.run_all (Overlay.sim ov);
  (* The other item under the same key survives; replicas are purged. *)
  let r = Overlay.lookup_sync ov ~origin:2 ~key:"k1" in
  (match r.Overlay.items with
  | [ i ] -> check Alcotest.string "b remains" "b" i.Store.item_id
  | l -> Alcotest.failf "expected 1 item, got %d" (List.length l));
  let holders =
    Overlay.responsible ov "k1"
    |> List.filter (fun (nd : Node.t) ->
           List.exists (fun (i : Store.item) -> i.Store.item_id = "a") (Store.find nd.Node.store "k1"))
  in
  check Alcotest.int "no replica still holds a" 0 (List.length holders);
  (* Deleting a non-existent item is a no-op that still completes. *)
  let r = Overlay.delete_sync ov ~origin:0 ~key:"nothing" ~item_id:"x" in
  Alcotest.(check bool) "idempotent delete" true r.Overlay.complete

let test_repair_refs () =
  let config = { Config.default with replication = 4 } in
  let rng = Rng.create 44 in
  let keys = random_words rng 100 in
  let ov = build_overlay ~n:32 ~config ~keys () in
  insert_all ov keys;
  Sim.run_all (Overlay.sim ov);
  List.iter (Overlay.kill ov) [ 1; 3; 5; 7; 9; 11; 13; 15; 17; 19; 21; 23 ];
  Build.repair_refs ov;
  (* After repair, every alive node's refs point only to alive peers
     wherever alive candidates exist. *)
  List.iter
    (fun (nd : Node.t) ->
      if Overlay.alive ov nd.Node.id then
        Array.iteri
          (fun l refs ->
            List.iter
              (fun r ->
                if not (Overlay.alive ov r) then
                  Alcotest.failf "peer%d level %d still references dead peer%d" nd.Node.id l r)
              refs)
          nd.Node.refs)
    (Overlay.nodes ov);
  (* And lookups succeed from an alive origin. *)
  let ok = ref 0 in
  List.iteri
    (fun i k ->
      if i mod 5 = 0 then begin
        let r = Overlay.lookup_sync ov ~origin:0 ~key:k in
        if r.Overlay.complete && r.Overlay.items <> [] then incr ok
      end)
    keys;
  Alcotest.(check bool) (Printf.sprintf "lookups ok after repair (%d/20)" !ok) true (!ok >= 19)

let test_send_task () =
  let ov = build_overlay ~n:4 ~keys:[] () in
  let ran_at = ref (-1) in
  Overlay.send_task ov ~src:0 ~dst:3 ~bytes:100 (fun peer -> ran_at := peer);
  Sim.run_all (Overlay.sim ov);
  check Alcotest.int "ran at destination" 3 !ran_at;
  Overlay.kill ov 2;
  let ran2 = ref false in
  Overlay.send_task ov ~src:0 ~dst:2 ~bytes:10 (fun _ -> ran2 := true);
  Sim.run_all (Overlay.sim ov);
  Alcotest.(check bool) "not run at dead peer" false !ran2

let test_load_balancing_under_skew () =
  (* Zipf-skewed keys: load-aware construction should spread storage much
     more evenly than uniform key-space splits. *)
  let rng = Rng.create 11 in
  let zipf = Zipf.create ~n:500 ~s:1.1 in
  let keys =
    List.init 2000 (fun i ->
        Printf.sprintf "val%04d-%d" (Zipf.sample zipf rng) i)
  in
  let imbalance balanced =
    let ov = build_overlay ~n:64 ~balanced ~keys () in
    insert_all ov keys;
    Sim.run_all (Overlay.sim ov);
    let sizes =
      Overlay.nodes ov |> List.map (fun (nd : Node.t) -> float_of_int (Store.size nd.Node.store))
    in
    let s = Stats.summarize sizes in
    s.Stats.max /. Float.max 1.0 s.Stats.mean
  in
  let with_lb = imbalance false and without_lb = imbalance true in
  Alcotest.(check bool)
    (Printf.sprintf "load-aware imbalance %.2f < uniform %.2f" with_lb without_lb)
    true (with_lb < without_lb)

let test_range_under_jittery_latency () =
  (* Regression: under heavy-tailed latencies a grandchild's RangeHit can
     arrive before its parent's; the termination detection must not end
     the shower early (token accounting). *)
  let rng = Rng.create 31 in
  let keys = List.sort_uniq compare (random_words rng 150) in
  let ov = build_overlay ~n:96 ~model:Latency.Planetlab ~keys () in
  insert_all ov keys;
  for trial = 0 to 9 do
    let lo = String.make 1 (Char.chr (Char.code 'a' + (trial mod 3))) in
    let hi = "z" in
    let expected = range_oracle keys ~lo ~hi in
    let r = Overlay.range_sync ov ~origin:(trial * 7 mod 96) ~lo ~hi () in
    Alcotest.(check bool) (Printf.sprintf "trial %d complete" trial) true r.Overlay.complete;
    let got = List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare in
    check Alcotest.(list string) (Printf.sprintf "trial %d exact" trial) expected got
  done;
  (* Sequential and broadcast under the same jitter. *)
  let expected = range_oracle keys ~lo:"c" ~hi:"t" in
  let r = Overlay.range_sync ov ~origin:5 ~strategy:Message.Sequential ~lo:"c" ~hi:"t" () in
  Alcotest.(check bool) "sequential complete" true r.Overlay.complete;
  check
    Alcotest.(list string)
    "sequential exact" expected
    (List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare);
  let r = Overlay.broadcast_sync ov ~origin:2 ~pred:(fun _ -> true) in
  Alcotest.(check bool) "broadcast complete" true r.Overlay.complete;
  check Alcotest.int "broadcast sees all" (List.length keys)
    (List.length (List.sort_uniq compare (List.map (fun i -> i.Store.key) r.Overlay.items)))

(* ------------------------------------------------------------------ *)
(* Bootstrap *)

let test_bootstrap_builds_trie () =
  let sim = Sim.create () in
  let rng = Rng.create 12 in
  let n = 24 in
  let latency = Latency.create (Latency.Constant 1.0) ~n ~rng in
  let config = Config.default in
  let word_rng = Rng.create 13 in
  let initial_data =
    List.init n (fun i ->
        let words = random_words word_rng 8 in
        ( i,
          List.mapi
            (fun j w -> { Store.key = w; item_id = Printf.sprintf "boot%d-%d" i j; payload = w; version = 0 })
            words ))
  in
  let ov, report =
    Build.bootstrap sim ~latency ~rng ~config ~n ~initial_data ~rounds:40 ~split_threshold:12 ()
  in
  Alcotest.(check bool) "coverage" true report.Build.coverage_ok;
  Alcotest.(check bool) "trie formed (depth>=2)" true (report.Build.final_depth >= 2);
  Alcotest.(check bool) "exchanges happened" true (report.Build.exchanges > n);
  (* The overlay must be usable: inserts and lookups work. *)
  let r = Overlay.insert_sync ov ~origin:0 ~key:"hello" ~item_id:"h" ~payload:"world" () in
  Alcotest.(check bool) "insert works" true r.Overlay.complete;
  let r = Overlay.lookup_sync ov ~origin:(n - 1) ~key:"hello" in
  Alcotest.(check bool) "lookup works" true (r.Overlay.complete && r.Overlay.items <> [])

let test_bootstrap_data_preserved () =
  let sim = Sim.create () in
  let rng = Rng.create 14 in
  let n = 12 in
  let latency = Latency.create (Latency.Constant 1.0) ~n ~rng in
  let config = Config.default in
  let initial_data =
    List.init n (fun i ->
        (i, [ { Store.key = Printf.sprintf "key%02d" i; item_id = Printf.sprintf "it%d" i; payload = "x"; version = 0 } ]))
  in
  let ov, _ = Build.bootstrap sim ~latency ~rng ~config ~n ~initial_data ~rounds:40 () in
  (* Every initial item must still exist somewhere in the network. *)
  let all_items =
    Overlay.nodes ov |> List.concat_map (fun (nd : Node.t) -> Store.to_list nd.Node.store)
  in
  List.iteri
    (fun i _ ->
      let id = Printf.sprintf "it%d" i in
      if not (List.exists (fun (it : Store.item) -> String.equal it.Store.item_id id) all_items)
      then Alcotest.failf "bootstrap lost item %s" id)
    initial_data

let test_join_running_overlay () =
  let rng = Rng.create 51 in
  let keys = random_words rng 60 in
  let ov = build_overlay ~n:16 ~keys () in
  insert_all ov keys;
  Sim.run_all (Overlay.sim ov);
  (* A new peer joins by cloning peer 3. *)
  Alcotest.(check bool) "join succeeds" true (Build.join ov ~id:100 ~bootstrap:3);
  Sim.run_all (Overlay.sim ov);
  let newcomer = Overlay.node ov 100 in
  let boot = Overlay.node ov 3 in
  Alcotest.(check bool) "same path" true (Bitkey.equal newcomer.Node.path boot.Node.path);
  check Alcotest.int "same data" (Store.size boot.Node.store) (Store.size newcomer.Node.store);
  Alcotest.(check bool) "replica registered" true (List.mem 100 boot.Node.replicas);
  (* The newcomer can serve queries: kill the whole original replica group
     and look the bootstrap's data up. *)
  let held = Store.to_list boot.Node.store in
  Overlay.kill ov 3;
  List.iter (Overlay.kill ov) (List.filter (fun p -> p <> 100) boot.Node.replicas);
  Build.repair_refs ov;
  (match held with
  | (it : Store.item) :: _ ->
    let r = Overlay.lookup_sync ov ~origin:0 ~key:it.Store.key in
    Alcotest.(check bool) "newcomer serves the data" true
      (r.Overlay.complete && r.Overlay.items <> [])
  | [] -> ());
  (* Joining via a dead bootstrap fails cleanly. *)
  Overlay.kill ov 5;
  Alcotest.(check bool) "dead bootstrap rejected" false (Build.join ov ~id:101 ~bootstrap:5)

let test_bootstrap_merge () =
  (* Two groups build overlays in isolation, then merge: cross-group
     lookups must start working. *)
  let sim = Sim.create () in
  let rng = Rng.create 17 in
  let n = 16 in
  let latency = Latency.create (Latency.Constant 1.0) ~n ~rng in
  let word_rng = Rng.create 18 in
  let initial_data =
    List.init n (fun i ->
        ( i,
          List.mapi
            (fun j w -> { Store.key = w; item_id = Printf.sprintf "m%d-%d" i j; payload = w; version = 0 })
            (random_words word_rng 6) ))
  in
  let ov, report =
    Build.bootstrap sim ~latency ~rng ~config:Config.default ~n ~initial_data ~rounds:60
      ~split_threshold:10 ~groups:2 ~merge_at:25 ()
  in
  Alcotest.(check bool) "coverage after merge" true report.Build.coverage_ok;
  (* Items contributed by group 0 peers must be findable from group 1. *)
  let group0_item = List.hd (snd (List.nth initial_data 0)) in
  let r = Overlay.lookup_sync ov ~origin:(n - 1) ~key:group0_item.Store.key in
  Alcotest.(check bool) "cross-group lookup works" true
    (r.Overlay.complete
    && List.exists
         (fun (i : Store.item) -> String.equal i.Store.item_id group0_item.Store.item_id)
         r.Overlay.items)

(* ------------------------------------------------------------------ *)
(* Message sizes *)

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let region = ("lo-bound", Some "hi-bound")

(* One witness per constructor; a new constructor without a case here
   fails the exhaustiveness check below. *)
let message_witnesses =
  let it = item "key#one" "id1" "payload-bytes" in
  [
    Message.Insert { rid = 1; item = it; origin = 0; hops = 0 };
    Message.Update { rid = 1; item = it; origin = 0; hops = 0; rounds = 1 };
    Message.Delete { rid = 1; key = "k"; item_id = "i"; origin = 0; hops = 0 };
    Message.Replicate { item = it; rounds_left = 1 };
    Message.Unreplicate { key = "k"; item_id = "i" };
    Message.Ack { rid = 1; hops = 0; region };
    Message.Lookup { rid = 1; key = "k"; origin = 0; hops = 0 };
    Message.Found { rid = 1; items = [ it ]; hops = 0; region; spread = [] };
    Message.Range
      {
        rid = 1; token = 2; lo = "a"; hi = "b"; clip_lo = "a"; clip_hi = Some "b"; origin = 0;
        reply_to = 0; hops = 0; strategy = Message.Shower; budget = None;
      };
    Message.RangeHit { rid = 1; token = 2; items = [ it ]; targets = [ 3; 4 ]; origin = 0; hops = 0 };
    Message.InsertBatch { rid = 1; items = [ it; it ]; origin = 0; hops = 0 };
    Message.AckBatch { rid = 1; keys = [ "k1"; "k2" ]; region; hops = 0 };
    Message.MultiLookup { rid = 1; keys = [ "k1"; "k2" ]; origin = 0; hops = 0 };
    Message.MultiFound { rid = 1; found = [ ("k1", [ it ]) ]; region; hops = 0 };
    Message.Probe
      { rid = 1; token = 2; clip_lo = ""; clip_hi = None; origin = 0; hops = 0; pred = (fun _ -> true); reduce = None };
    Message.Task { bytes = 16; run = ignore };
    Message.SyncDigest { digest = [ ("k", "i", 1) ] };
    Message.SyncRequest { wanted = [ ("k", "i") ] };
    Message.SyncItems { items = [ it ] };
    Message.StatGossip { summaries = [] };
    Message.Exchange { bytes = 16; run = ignore };
  ]

let test_message_sizes_positive () =
  (* Every constructor appears exactly once above. *)
  let kinds = List.sort_uniq compare (List.map Message.kind message_witnesses) in
  check Alcotest.int "all constructors covered" (List.length message_witnesses)
    (List.length kinds);
  List.iter
    (fun m ->
      if Message.size m < Message.header then
        Alcotest.failf "size of %s below header (%d < %d)" (Message.kind m) (Message.size m)
          Message.header;
      if Message.size m <= 0 then Alcotest.failf "non-positive size for %s" (Message.kind m))
    message_witnesses

let gen_item =
  QCheck2.Gen.(
    let str n = string_size ~gen:(char_range 'a' 'z') (1 -- n) in
    map
      (fun ((key, item_id), (payload, version)) -> { Store.key; item_id; payload; version })
      (pair (pair (str 24) (str 8)) (pair (str 60) (0 -- 5))))

let gen_items = QCheck2.Gen.(list_size (0 -- 12) gen_item)

(* Batch messages must cost exactly one envelope plus their items: the
   per-item payload bytes of the singleton messages they replace, with
   all but one header amortized away. *)
let prop_insert_batch_size =
  qtest "insert-batch size = header + item payloads" gen_items (fun items ->
      let single (it : Store.item) =
        Message.size (Message.Insert { rid = 0; item = it; origin = 0; hops = 0 })
        - Message.header
      in
      Message.size (Message.InsertBatch { rid = 0; items; origin = 0; hops = 0 })
      = Message.header + List.fold_left (fun acc it -> acc + single it) 0 items)

let prop_multi_lookup_size =
  qtest "multi-lookup size = header + key bytes"
    QCheck2.Gen.(list_size (0 -- 12) (string_size ~gen:(char_range 'a' 'z') (1 -- 24)))
    (fun keys ->
      Message.size (Message.MultiLookup { rid = 0; keys; origin = 0; hops = 0 })
      = Message.header + List.fold_left (fun acc k -> acc + String.length k) 0 keys)

let prop_multi_found_size =
  qtest "multi-found size = header + keyed item payloads"
    QCheck2.Gen.(
      list_size (0 -- 8)
        (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 24)) (list_size (0 -- 4) gen_item)))
    (fun found ->
      let expected =
        Message.header
        + List.fold_left
            (fun acc (k, items) ->
              acc + String.length k
              + List.fold_left (fun a (i : Store.item) -> a + Store.item_bytes i) 0 items)
            0 found
        + String.length (fst region)
        + String.length (Option.get (snd region))
        + 2
      in
      Message.size (Message.MultiFound { rid = 0; found; region; hops = 0 }) = expected)

let prop_range_hit_size =
  qtest "range-hit size = header + items + tokens"
    QCheck2.Gen.(pair gen_items (list_size (0 -- 6) small_nat))
    (fun (items, targets) ->
      Message.size
        (Message.RangeHit { rid = 0; token = 0; items; targets; origin = 0; hops = 0 })
      = Message.header
        + List.fold_left (fun a (i : Store.item) -> a + Store.item_bytes i) 0 items
        + (4 * List.length targets))

(* ------------------------------------------------------------------ *)
(* Failover property *)

(* Any kill set that leaves at least one member of every leaf's replica
   group alive keeps every key resolvable from an alive origin — replica
   failover routes around the corpses. Reviving the victims and running
   a repair round must then leave nothing for the overlay auditor to
   complain about. *)
let prop_failover_any_kill_set =
  qtest ~count:12 "random kill sets: every key resolvable via failover"
    QCheck2.Gen.(0 -- 10_000)
    (fun kill_seed ->
      let config = { Config.default with replication = 3; timeout_ms = 200.0; retries = 2 } in
      let keys = List.sort_uniq compare (random_words (Rng.create 51) 50) in
      let ov = build_overlay ~n:24 ~config ~keys () in
      insert_all ov keys;
      Sim.run_all (Overlay.sim ov);
      (* Group peers by leaf path; kill a random subset that spares one
         member per group (and peer 0, the query origin). *)
      let krng = Rng.create kill_seed in
      let groups = Hashtbl.create 16 in
      List.iter
        (fun (n : Node.t) ->
          let cur = Option.value (Hashtbl.find_opt groups n.Node.path) ~default:[] in
          Hashtbl.replace groups n.Node.path (n.Node.id :: cur))
        (Overlay.nodes ov);
      let victims =
        Hashtbl.fold
          (fun _ ids acc ->
            let ids = List.sort compare ids in
            let keep = List.nth ids (Rng.int krng (List.length ids)) in
            List.filter (fun id -> id <> keep && id <> 0 && Rng.int krng 2 = 0) ids @ acc)
          groups []
      in
      List.iter (Overlay.kill ov) victims;
      let ok =
        List.for_all
          (fun k ->
            let r = Overlay.lookup_sync ov ~origin:0 ~key:k in
            r.Overlay.complete && r.Overlay.items <> [])
          keys
      in
      List.iter (Overlay.revive ov) victims;
      ignore (Unistore_pgrid.Repair.round ov);
      Sim.run_all (Overlay.sim ov);
      ok
      && not (Unistore_analysis.Diagnostic.has_errors (Unistore_analysis.Audit.pgrid ov)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "unistore_pgrid"
    [
      ( "store",
        [
          Alcotest.test_case "put/find" `Quick test_store_put_find;
          Alcotest.test_case "versions LWW" `Quick test_store_versions;
          Alcotest.test_case "idempotent retry" `Quick test_store_equal_version_idempotent;
          Alcotest.test_case "range" `Quick test_store_range;
          Alcotest.test_case "prefix" `Quick test_store_prefix;
          Alcotest.test_case "remove" `Quick test_store_remove;
          Alcotest.test_case "partition" `Quick test_store_partition;
          Alcotest.test_case "digest" `Quick test_store_digest;
        ] );
      ( "node",
        [
          Alcotest.test_case "path and refs" `Quick test_node_path_refs;
          Alcotest.test_case "path growth" `Quick test_node_path_growth_preserves_refs;
          Alcotest.test_case "region/covers" `Quick test_node_region_covers;
        ] );
      ( "overlay",
        [
          Alcotest.test_case "oracle invariants" `Quick test_oracle_invariants;
          Alcotest.test_case "oracle invariants (balanced)" `Quick test_oracle_balanced_invariants;
          Alcotest.test_case "single peer" `Quick test_oracle_single_peer;
          Alcotest.test_case "insert/lookup roundtrip" `Quick test_insert_lookup_roundtrip;
          Alcotest.test_case "lookup missing key" `Quick test_lookup_missing_key;
          Alcotest.test_case "replication places copies" `Quick test_replication_places_copies;
          Alcotest.test_case "range shower = oracle" `Quick test_range_shower_correct;
          Alcotest.test_case "range sequential = oracle" `Quick test_range_sequential_correct;
          Alcotest.test_case "strategies agree" `Quick test_range_strategies_agree;
          Alcotest.test_case "sequential is serial" `Quick test_sequential_more_serial_latency;
          Alcotest.test_case "budgeted sequential range" `Quick test_budgeted_sequential_range;
          Alcotest.test_case "hop-limited range is partial" `Quick test_hop_limited_range_partial;
          Alcotest.test_case "prefix search" `Quick test_prefix_search;
          Alcotest.test_case "broadcast probe" `Quick test_broadcast_probe;
          Alcotest.test_case "hops logarithmic" `Slow test_hops_logarithmic;
          Alcotest.test_case "lookups survive failures" `Quick test_failure_lookup_retries;
          Alcotest.test_case "lookups under message loss" `Quick test_lookups_under_message_loss;
          Alcotest.test_case "update + anti-entropy converge" `Quick test_update_and_gossip_convergence;
          Alcotest.test_case "stale update ignored" `Quick test_stale_update_ignored;
          Alcotest.test_case "send_task" `Quick test_send_task;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "repair_refs" `Quick test_repair_refs;
          Alcotest.test_case "load balancing under skew" `Slow test_load_balancing_under_skew;
          Alcotest.test_case "ranges exact under jittery latency" `Quick
            test_range_under_jittery_latency;
        ] );
      ( "message",
        [
          Alcotest.test_case "every constructor sized" `Quick test_message_sizes_positive;
          prop_insert_batch_size;
          prop_multi_lookup_size;
          prop_multi_found_size;
          prop_range_hit_size;
        ] );
      ("failover", [ prop_failover_any_kill_set ]);
      ( "bootstrap",
        [
          Alcotest.test_case "builds a usable trie" `Quick test_bootstrap_builds_trie;
          Alcotest.test_case "preserves data" `Quick test_bootstrap_data_preserved;
          Alcotest.test_case "merging two overlays" `Quick test_bootstrap_merge;
          Alcotest.test_case "join a running overlay" `Quick test_join_running_overlay;
        ] );
    ]
