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

open Test_support

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

(* A re-put of the stored item itself (an idempotent retry) changes
   nothing and says so; an equal version with another payload replaces. *)
let test_store_equal_version_idempotent () =
  let s = Store.create () in
  ignore (Store.put s (item ~version:1 "k" "a" "v1"));
  ignore (Store.put s (item ~version:0 "k" "b" "w"));
  Alcotest.(check bool) "identical re-put changes nothing" false
    (Store.put s (item ~version:1 "k" "a" "v1"));
  check Alcotest.int "still two" 2 (Store.size s);
  check Alcotest.(list string) "scan order kept" [ "b"; "a" ]
    (List.map (fun (i : Store.item) -> i.Store.item_id) (Store.find s "k"));
  Alcotest.(check bool) "equal version, other payload replaces" true
    (Store.put s (item ~version:1 "k" "a" "v2"));
  check Alcotest.(list string) "in place" [ "w"; "v2" ]
    (List.map (fun (i : Store.item) -> i.Store.payload) (Store.find s "k"))

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

(* A remove is the put of a tombstone: the item leaves every read, and
   the tombstone stays in the digest. *)
let test_store_remove () =
  let s = Store.create () in
  ignore (Store.put s (item "k" "a" "p"));
  ignore (Store.put s (item "k" "b" "q"));
  check Alcotest.bool "a tombstone of the same version wins" true
    (Store.put s (Store.tombstone ~key:"k" ~item_id:"a" ~version:0));
  check Alcotest.int "one left" 1 (Store.size s);
  ignore (Store.put s (Store.tombstone ~key:"k" ~item_id:"b" ~version:0));
  check Alcotest.int "empty" 0 (Store.size s);
  check Alcotest.int "no entry" 0 (List.length (Store.find s "k"));
  check
    Alcotest.(list (triple string string int))
    "tombstones in the digest" [ ("k", "a", 0); ("k", "b", 0) ]
    (List.sort compare (Store.digest s))

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
  check Alcotest.int "no dup" 2 (Array.length (Node.refs_at n 0));
  Node.add_ref n ~level:0 9 ~cap:3;
  Node.add_ref n ~level:0 10 ~cap:3;
  check Alcotest.int "capped" 3 (Array.length (Node.refs_at n 0));
  Node.remove_ref n 8;
  Alcotest.(check bool) "removed" false (Array.mem 8 (Node.refs_at n 0))

let test_node_path_growth_preserves_refs () =
  let n = Node.create 0 in
  Node.set_path n (Bitkey.of_string "1") [| "m" |];
  Node.add_ref n ~level:0 5 ~cap:3;
  Node.extend n ~bit:false ~boundary:"t";
  check Alcotest.string "path grew" "10" (Bitkey.to_string n.Node.path);
  check Alcotest.(array int) "level0 kept" [| 5 |] (Node.refs_at n 0);
  check Alcotest.(array int) "level1 empty" [||] (Node.refs_at n 1)

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
(* Rtt: the adaptive-deadline estimator, checked against a reference
   Jacobson/Karels EWMA written out here. *)

module Rtt = Unistore_pgrid.Rtt

(* (mean, dev, n) after folding [samples] in order: gains 1/8 and 1/4,
   the first sample seeds mean = s and dev = s/2. *)
let ref_ewma samples =
  List.fold_left
    (fun (mean, dev, n) s ->
      if n = 0 then (s, s /. 2.0, 1)
      else
        let err = s -. mean in
        (mean +. (0.125 *. err), dev +. (0.25 *. (Float.abs err -. dev)), n + 1))
    (0.0, 0.0, 0) samples

let ref_predict samples =
  let mean, dev, _ = ref_ewma samples in
  (mean +. (4.0 *. dev)) *. 2.0

let rtt_deadline ?peer ?(min_ms = 0.0) ?(max_ms = Float.infinity) t cls =
  Rtt.deadline t ?peer ~cls ~fallback:(-1.0) ~min_ms ~max_ms ()

(* Float equality to the last bit. *)
let bits =
  Alcotest.testable
    (fun f x -> Format.fprintf f "%h" x)
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let test_rtt_cold_fallback () =
  let t = Rtt.create () in
  check bits "cold tracker" 250.0
    (Rtt.deadline t ~peer:3 ~cls:"lookup" ~fallback:250.0 ~min_ms:1.0 ~max_ms:100.0 ());
  check Alcotest.int "no samples" 0 (Rtt.samples t);
  Alcotest.(check bool) "mean undefined" true (Float.is_nan (Rtt.mean t));
  Rtt.observe t ~peer:3 ~cls:"lookup" (-5.0);
  check Alcotest.int "negative sample ignored" 0 (Rtt.samples t);
  for _ = 2 to Rtt.min_samples do
    Rtt.observe t ~peer:3 ~cls:"lookup" 10.0
  done;
  check bits "below min_samples everywhere" (-1.0) (rtt_deadline ~peer:3 t "lookup")

let test_rtt_fallback_chain () =
  let t = Rtt.create () in
  (* One sample each for peer 5 / "lookup" and peer 6 / "range": no
     peer or class is warm, the global estimate (two samples) is. *)
  Rtt.observe t ~peer:5 ~cls:"lookup" 10.0;
  Rtt.observe t ~peer:6 ~cls:"range" 30.0;
  check bits "global" (ref_predict [ 10.0; 30.0 ]) (rtt_deadline ~peer:5 t "lookup");
  check bits "unknown class uses global" (ref_predict [ 10.0; 30.0 ]) (rtt_deadline t "insert");
  (* A second "lookup" sample (peer 7) warms the class. *)
  Rtt.observe t ~peer:7 ~cls:"lookup" 20.0;
  check bits "class" (ref_predict [ 10.0; 20.0 ]) (rtt_deadline ~peer:5 t "lookup");
  check bits "no peer: class" (ref_predict [ 10.0; 20.0 ]) (rtt_deadline t "lookup");
  check bits "other class: global" (ref_predict [ 10.0; 30.0; 20.0 ]) (rtt_deadline t "range");
  (* A second peer-5 sample (other class) warms the peer. *)
  Rtt.observe t ~peer:5 ~cls:"insert" 40.0;
  check bits "peer" (ref_predict [ 10.0; 40.0 ]) (rtt_deadline ~peer:5 t "lookup");
  check bits "cold peer: class" (ref_predict [ 10.0; 20.0 ]) (rtt_deadline ~peer:9 t "lookup");
  check Alcotest.int "global samples" 4 (Rtt.samples t);
  let mean, _, _ = ref_ewma [ 10.0; 30.0; 20.0; 40.0 ] in
  check bits "global mean" mean (Rtt.mean t)

let test_rtt_clamp () =
  let t = Rtt.create () in
  List.iter (Rtt.observe t ~cls:"lookup") [ 100.0; 100.0 ];
  let d = ref_predict [ 100.0; 100.0 ] in
  check bits "inside the band" d (rtt_deadline ~min_ms:1.0 ~max_ms:1e6 t "lookup");
  check bits "raised to min_ms" (d +. 1.0) (rtt_deadline ~min_ms:(d +. 1.0) t "lookup");
  check bits "cut to max_ms" (d -. 1.0) (rtt_deadline ~max_ms:(d -. 1.0) t "lookup")

let test_rtt_forget_peer () =
  let t = Rtt.create () in
  List.iter (Rtt.observe t ~peer:4 ~cls:"lookup") [ 8.0; 9.0 ];
  List.iter (Rtt.observe t ~peer:2 ~cls:"lookup") [ 50.0; 60.0 ];
  check bits "peer estimate" (ref_predict [ 8.0; 9.0 ]) (rtt_deadline ~peer:4 t "lookup");
  Rtt.forget_peer t 4;
  Rtt.forget_peer t 77;
  check bits "forgotten peer: class" (ref_predict [ 8.0; 9.0; 50.0; 60.0 ])
    (rtt_deadline ~peer:4 t "lookup");
  check bits "other peer kept" (ref_predict [ 50.0; 60.0 ]) (rtt_deadline ~peer:2 t "lookup");
  Rtt.observe t ~peer:4 ~cls:"lookup" 1.0;
  check bits "relearned from scratch" (ref_predict [ 8.0; 9.0; 50.0; 60.0; 1.0 ])
    (rtt_deadline ~peer:4 t "lookup")

(* A fixed irregular sequence over three peers and two classes: every
   deadline must equal the reference EWMA to the last bit. *)
let test_rtt_matches_reference () =
  let t = Rtt.create () in
  let rng = Rng.create 17 in
  let seen_peer = Array.make 3 [] and seen_cls = Array.make 2 [] and seen = ref [] in
  let classes = [| "lookup"; "range" |] in
  for _ = 1 to 200 do
    let p = Rng.int rng 3 and c = Rng.int rng 2 in
    let s = Rng.float_in rng 0.5 400.0 in
    Rtt.observe t ~peer:p ~cls:classes.(c) s;
    seen_peer.(p) <- seen_peer.(p) @ [ s ];
    seen_cls.(c) <- seen_cls.(c) @ [ s ];
    seen := !seen @ [ s ];
    let expect l = if List.length l >= Rtt.min_samples then Some (ref_predict l) else None in
    let want =
      match expect seen_peer.(p) with
      | Some d -> d
      | None -> (
        match expect seen_cls.(c) with
        | Some d -> d
        | None -> Option.value ~default:(-1.0) (expect !seen))
    in
    check bits "deadline" want (rtt_deadline ~peer:p t classes.(c));
    check bits "class deadline"
      (match expect seen_cls.(c) with
      | Some d -> d
      | None -> Option.value ~default:(-1.0) (expect !seen))
      (rtt_deadline t classes.(c))
  done;
  check Alcotest.int "samples" 200 (Rtt.samples t);
  let mean, _, _ = ref_ewma !seen in
  check bits "mean" mean (Rtt.mean t)

(* ------------------------------------------------------------------ *)
(* Overlay tests *)

(* The overlay auditor's errors (warnings such as replica divergence
   are not structural). *)
let audit_errors ov =
  Unistore_analysis.Audit.pgrid ov
  |> List.filter Unistore_analysis.Diagnostic.is_error
  |> List.map (fun (d : Unistore_analysis.Diagnostic.t) -> d.message)

let test_oracle_invariants () =
  let rng = Rng.create 1 in
  let keys = random_words rng 200 in
  let ov = build_overlay ~n:64 ~keys () in
  check Alcotest.(list string) "invariants hold" [] (audit_errors ov);
  Alcotest.(check bool) "depth sane" true (Overlay.depth ov >= 4 && Overlay.depth ov <= 16)

let test_oracle_balanced_invariants () =
  let ov = build_overlay ~n:30 ~balanced:true ~keys:[] () in
  check Alcotest.(list string) "invariants hold (balanced)" [] (audit_errors ov)

let test_oracle_single_peer () =
  let ov = build_overlay ~n:1 ~keys:[] () in
  let r = await (Overlay.sim ov) (fun ret ->
      Overlay.insert ov ~origin:0 ~key:"k" ~item_id:"a" ~payload:"p" ~k:ret ()) in
  Alcotest.(check bool) "insert ok" true r.Overlay.complete;
  let r = await (Overlay.sim ov) (fun ret -> Overlay.lookup ov ~origin:0 ~key:"k" ~k:ret) in
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
      let r = await (Overlay.sim ov) (fun ret -> Overlay.lookup ov ~origin ~key:k ~k:ret) in
      if not r.Overlay.complete then Alcotest.failf "lookup %S incomplete" k;
      if List.length r.Overlay.items < 1 then Alcotest.failf "lookup %S found nothing" k;
      if r.Overlay.hops > depth then
        Alcotest.failf "lookup %S took %d hops > depth %d" k r.Overlay.hops depth)
    keys

let test_lookup_missing_key () =
  let ov = build_overlay ~n:16 ~keys:[] () in
  let r = await (Overlay.sim ov) (fun k -> Overlay.lookup ov ~origin:0 ~key:"nothing-here" ~k) in
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
        Overlay.Oracle.responsible ov k
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
      let r = await (Overlay.sim ov) (fun k ->
          Overlay.range ov ~origin:5 ~strategy:Message.Shower ~lo ~hi ~k ()) in
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
  let r = await (Overlay.sim ov) (fun k ->
      Overlay.range ov ~origin:3 ~strategy:Message.Sequential ~lo ~hi ~k ()) in
  Alcotest.(check bool) "complete" true r.Overlay.complete;
  let got = List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare in
  check Alcotest.(list string) "sequential = oracle" expected got

let test_range_strategies_agree () =
  let rng = Rng.create 6 in
  let keys = List.sort_uniq compare (random_words rng 80) in
  let ov = build_overlay ~n:32 ~keys () in
  insert_all ov keys;
  let norm r = List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare in
  let a = await (Overlay.sim ov) (fun k ->
      Overlay.range ov ~origin:0 ~strategy:Message.Shower ~lo:"d" ~hi:"t" ~k ()) in
  let b = await (Overlay.sim ov) (fun k ->
      Overlay.range ov ~origin:0 ~strategy:Message.Sequential ~lo:"d" ~hi:"t" ~k ()) in
  check Alcotest.(list string) "same answers" (norm a) (norm b)

let test_sequential_more_serial_latency () =
  let rng = Rng.create 7 in
  let keys = List.sort_uniq compare (random_words rng 200) in
  let ov = build_overlay ~n:64 ~model:(Latency.Constant 10.0) ~keys () in
  insert_all ov keys;
  let a = await (Overlay.sim ov) (fun k ->
      Overlay.range ov ~origin:0 ~strategy:Message.Shower ~lo:"" ~hi:"zzzz" ~k ()) in
  let b = await (Overlay.sim ov) (fun k ->
      Overlay.range ov ~origin:0 ~strategy:Message.Sequential ~lo:"" ~hi:"zzzz" ~k ()) in
  Alcotest.(check bool)
    (Printf.sprintf "sequential latency (%f) > shower (%f)" b.Overlay.latency a.Overlay.latency)
    true
    (b.Overlay.latency > a.Overlay.latency)

(* A budgeted range whose cut falls inside one key answers the same from
   every replica, whatever order each replica received that key's items
   in: the cut keeps the key's smallest item ids. *)
let test_budgeted_range_same_from_every_replica () =
  let rng = Rng.create 62 in
  let keys = List.sort_uniq compare (random_words rng 120) in
  let ov = build_overlay ~n:16 ~keys () in
  let key = List.nth keys 60 in
  let next_key = key ^ "a" in
  let a =
    List.find (fun (nd : Node.t) -> Node.covers nd key && nd.Node.replicas <> []) (Overlay.nodes ov)
  in
  let b = Overlay.node ov (List.hd a.Node.replicas) in
  Alcotest.(check bool) "both keys on one replica group" true
    (Node.covers a next_key && Node.covers b key && Node.covers b next_key);
  let ids = [ "id1"; "id2"; "id3"; "id4" ] in
  List.iter
    (fun (nd, order) ->
      ignore (Store.put nd.Node.store (item key "id0" "first"));
      List.iter (fun id -> ignore (Store.put nd.Node.store (item next_key id id))) order)
    [ (a, ids); (b, List.rev ids) ];
  let answer (nd : Node.t) =
    let r =
      await (Overlay.sim ov) (fun k ->
          Overlay.range ov ~origin:nd.Node.id ~strategy:Message.Sequential ~budget:3 ~lo:key
            ~hi:next_key ~k ())
    in
    List.map (fun (i : Store.item) -> (i.Store.key, i.Store.item_id)) r.Overlay.items
  in
  let expected = [ (key, "id0"); (next_key, "id1"); (next_key, "id2") ] in
  check Alcotest.(list (pair string string)) "from one replica" expected (answer a);
  check Alcotest.(list (pair string string)) "from the other" expected (answer b)

let test_budgeted_sequential_range () =
  let rng = Rng.create 61 in
  let keys = List.sort_uniq compare (random_words rng 120) in
  let ov = build_overlay ~n:32 ~keys () in
  insert_all ov keys;
  let budget = 7 in
  let r =
    await (Overlay.sim ov) (fun k ->
        Overlay.range ov ~origin:2 ~strategy:Message.Sequential ~budget ~lo:"" ~hi:"zzzz" ~k ())
  in
  Alcotest.(check bool) "complete" true r.Overlay.complete;
  let got = List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare in
  (* Exactly the [budget] smallest keys (key order = value order). *)
  let expected = List.filteri (fun i _ -> i < budget) keys in
  check Alcotest.(list string) "the smallest keys" expected got;
  (* Far fewer messages than the unbudgeted traversal. *)
  let m0 = Net.total_sent (Overlay.net ov) in
  ignore (await (Overlay.sim ov) (fun k ->
      Overlay.range ov ~origin:2 ~strategy:Message.Sequential ~budget ~lo:"" ~hi:"zzzz" ~k ()));
  let budgeted = Net.total_sent (Overlay.net ov) - m0 in
  let m1 = Net.total_sent (Overlay.net ov) in
  ignore (await (Overlay.sim ov) (fun k ->
      Overlay.range ov ~origin:2 ~strategy:Message.Sequential ~lo:"" ~hi:"zzzz" ~k ()));
  let full = Net.total_sent (Overlay.net ov) - m1 in
  Alcotest.(check bool)
    (Printf.sprintf "early stop saves messages (%d < %d)" budgeted full)
    true (budgeted < full);
  (* Budget + shower is rejected. *)
  (try
     ignore (await (Overlay.sim ov) (fun k ->
         Overlay.range ov ~origin:0 ~strategy:Message.Shower ~budget:3 ~lo:"a" ~hi:"b" ~k ()));
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
      let r = await (Overlay.sim ov) (fun k ->
          Overlay.range ov ~origin:0 ~strategy ~lo:"k0000" ~hi:"k0199" ~k ()) in
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
        (r.Overlay.latency < Unistore_pgrid.Request.min_timeout_ms))
    [ (Message.Sequential, "sequential", 8); (Message.Shower, "shower", 3) ];
  Overlay.set_config ov Config.default;
  let r = await (Overlay.sim ov) (fun k ->
      Overlay.range ov ~origin:0 ~lo:"k0000" ~hi:"k0199" ~k ()) in
  Alcotest.(check bool) "default hop limit: complete" true r.Overlay.complete;
  check Alcotest.int "default hop limit: every row" 200 (List.length r.Overlay.items)

let test_prefix_search () =
  let keys = [ "apple"; "application"; "apply"; "banana"; "appetite"; "zebra" ] in
  let ov = build_overlay ~n:16 ~keys () in
  insert_all ov keys;
  let r = await (Overlay.sim ov) (fun k -> Overlay.prefix ov ~origin:1 ~prefix:"appl" ~k) in
  Alcotest.(check bool) "complete" true r.Overlay.complete;
  let got = List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare in
  check Alcotest.(list string) "prefix matches" [ "apple"; "application"; "apply" ] got

let test_broadcast_probe () =
  let rng = Rng.create 8 in
  let keys = List.sort_uniq compare (random_words rng 60) in
  let ov = build_overlay ~n:32 ~keys () in
  insert_all ov keys;
  let r = await (Overlay.sim ov) (fun k ->
      Overlay.broadcast ov ~origin:2 ~pred:(fun i -> String.length i.Store.key > 6) ~k ()) in
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

(* A clipped broadcast whose predicate ignores keys answers exactly
   the stored keys in [lo, hi), even from the leaves whose regions
   straddle a bound. *)
let test_broadcast_clip () =
  let rng = Rng.create 8 in
  let keys = List.sort_uniq compare (random_words rng 60) in
  let ov = build_overlay ~n:32 ~keys () in
  insert_all ov keys;
  let lo = "e" and hi = "t" in
  let r = await (Overlay.sim ov) (fun k ->
      Overlay.broadcast ov ~origin:2 ~lo ~hi ~pred:(fun _ -> true) ~k ()) in
  Alcotest.(check bool) "complete" true r.Overlay.complete;
  let got = List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare in
  List.iter
    (fun key ->
      Alcotest.(check bool) (Printf.sprintf "%S in [%s, %s)" key lo hi) true (key >= lo && key < hi))
    got;
  check Alcotest.(list string) "every key in the clip"
    (List.filter (fun key -> key >= lo && key < hi) keys)
    got

(* A semi-join filter shrinks a range's answer, never its traffic: on
   identical 64-peer overlays under LAN latency and 2% loss, the same
   shower ranges and prefix search, filtered and not, send the same
   (src, dst, kind) sequence at the same times, and each filtered answer
   is exactly the unfiltered items the filter admits. One filter admits
   a key in three; one admits none, so every peer's items are dropped,
   and a peer that decided on path compression after filtering would
   pass its token through where the unfiltered shower reports a hit. *)
let test_filtered_shower_same_messages () =
  let keys = List.sort_uniq compare (random_words (Rng.create 38) 400) in
  let filter_of kept =
    let bloom = Bloom.of_list kept in
    { Message.bloom; admits = (fun (i : Store.item) -> Bloom.mem bloom i.Store.key) }
  in
  let session filter =
    let config = { Config.default with replication = 3; timeout_ms = 400.0; retries = 3 } in
    let ov = build_overlay ~n:64 ~seed:5 ~model:Latency.Lan ~drop:0.02 ~config ~keys () in
    insert_all ov keys;
    let m = Unistore_obs.Metrics.create () in
    Overlay.set_metrics ov (Some m);
    let tr = Unistore_sim.Trace.create () in
    Net.set_trace (Overlay.net ov) (Some tr);
    let sim = Overlay.sim ov in
    let ranges =
      List.map
        (fun (origin, lo, hi) ->
          await sim (fun k -> Overlay.range ov ~origin ?filter ~lo ~hi ~k ()))
        [ (7, "d", "s"); (21, "a", "k"); (50, "h", "zz"); (3, "", "zz") ]
    in
    let prefix = await sim (fun k -> Overlay.prefix ?filter ov ~origin:40 ~prefix:"m" ~k) in
    let sends =
      Unistore_sim.Trace.events tr
      |> List.map (fun (e : Unistore_sim.Trace.event) ->
             Printf.sprintf "%h %d>%d %s" e.time e.src e.dst e.kind)
    in
    let counter = Unistore_obs.Metrics.counter m in
    (sends, prefix :: ranges, counter "scan.semijoin.dropped", counter "batch.agg.elided")
  in
  let plain_sends, plain, plain_dropped, elided = session None in
  check Alcotest.int "nothing dropped unfiltered" 0 plain_dropped;
  Alcotest.(check bool) "some peers compressed their path" true (elided > 0);
  List.iter
    (fun (name, filter) ->
      let sends, filtered, dropped, _ = session (Some filter) in
      check Alcotest.(list string) (name ^ ": same messages") plain_sends sends;
      List.iter2
        (fun (p : Overlay.result) (f : Overlay.result) ->
          Alcotest.(check bool) (name ^ ": complete") true (p.complete && f.complete);
          check
            Alcotest.(list string)
            (name ^ ": filtered = admitted unfiltered items")
            (List.map (fun (i : Store.item) -> i.key) (List.filter filter.admits p.items))
            (List.map (fun (i : Store.item) -> i.key) f.items);
          Alcotest.(check bool) (name ^ ": same latency") true (Float.equal p.latency f.latency))
        plain filtered;
      Alcotest.(check bool) (name ^ ": leaves dropped items") true (dropped > 0))
    [
      ("one in three", filter_of (List.filteri (fun i _ -> i mod 3 = 0) keys));
      ("none", filter_of []);
    ]

let test_hops_logarithmic () =
  let rng = Rng.create 9 in
  let keys = random_words rng 400 in
  let ov = build_overlay ~n:256 ~keys () in
  insert_all ov keys;
  let hops = ref [] in
  List.iteri
    (fun i k ->
      if i mod 4 = 0 then begin
        let r = await (Overlay.sim ov) (fun ret ->
            Overlay.lookup ov ~origin:(i mod 256) ~key:k ~k:ret) in
        hops := float_of_int r.Overlay.hops :: !hops
      end)
    keys;
  let s = Stats.summarize !hops in
  (* log2 256 = 8; with replication-2 leaves the trie depth is ~7-9. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean hops %.2f within logarithmic budget" s.Stats.mean)
    true
    (s.Stats.mean <= 10.0)

(* ------------------------------------------------------------------ *)
(* Reference choice *)

(* The levels of [nd]'s path that [key] agrees with, counted from the
   root; [max_int] when [nd] covers [key]. *)
let shared_levels (nd : Node.t) key =
  if Node.covers nd key then max_int
  else
    let rec go l =
      if Node.key_side nd ~level:l key = Bitkey.get nd.Node.path l then go (l + 1) else l
    in
    go 0

(* The level at which [key] leaves [me]'s path, [None] if [me] covers it. *)
let branch_level (me : Node.t) key =
  let len = Bitkey.length me.Node.path in
  let rec go l =
    if l >= len then None
    else if Node.key_side me ~level:l key <> Bitkey.get me.Node.path l then Some l
    else go (l + 1)
  in
  go 0

(* Every (peer, level, key) of a seeded 512-peer build where the key
   leaves the peer's path at [level], with that level's references and
   their shared levels with the key. *)
let reference_choices () =
  let keys = random_words (Rng.create 61) 2000 in
  let ov = build_overlay ~n:512 ~seed:62 ~keys () in
  let krng = Rng.create 63 in
  let choices =
    List.concat_map
      (fun (me : Node.t) ->
        List.filter_map
          (fun key ->
            match branch_level me key with
            | None -> None
            | Some level ->
              let refs = Array.to_list (Node.refs_at me level) in
              Some (me, level, key, List.map (fun p -> (p, shared_levels (Overlay.node ov p) key)) refs))
          (random_words krng 6))
      (Overlay.nodes ov)
  in
  (ov, choices)

let deepest refs = List.fold_left (fun d (_, s) -> max d s) min_int refs

let test_next_hop_deepest () =
  let ov, choices = reference_choices () in
  let uneven = ref 0 in
  List.iter
    (fun ((me : Node.t), level, key, refs) ->
      let best = deepest refs in
      if List.exists (fun (_, s) -> s <> best) refs then incr uneven;
      match Overlay.choose_ref ov me ~key level with
      | None -> Alcotest.failf "peer %d has no reference at level %d" me.Node.id level
      | Some p ->
        let got = shared_levels (Overlay.node ov p) key in
        if got <> best then
          Alcotest.failf "peer %d, key %S, level %d: chose %d sharing %d levels, best shares %d"
            me.Node.id key level p got best)
    choices;
  (* The check means something only where the references differ. *)
  Alcotest.(check bool) (Printf.sprintf "%d choices among uneven refs" !uneven) true (!uneven > 100)

let test_tied_refs_share_load () =
  let ov, choices = reference_choices () in
  let tied =
    List.filter_map
      (fun (me, level, key, refs) ->
        let best = deepest refs in
        match List.filter (fun (_, s) -> s = best) refs with
        | _ :: _ :: _ as t -> Some (me, level, key, List.map fst t)
        | _ -> None)
      choices
  in
  Alcotest.(check bool) (Printf.sprintf "%d choices with tied refs" (List.length tied)) true
    (List.length tied > 100);
  List.iter
    (fun ((me : Node.t), level, key, peers) ->
      let picked = List.init 60 (fun _ -> Overlay.choose_ref ov me ~key level) in
      List.iter
        (fun p ->
          if not (List.mem (Some p) picked) then
            Alcotest.failf "peer %d, key %S, level %d: tied ref %d never picked in 60 choices"
              me.Node.id key level p)
        peers)
    (List.filteri (fun i _ -> i mod 10 = 0) tied)

(* Cold routing (no shortcuts): choosing the deepest reference skips
   levels, so a lookup takes well under one hop per trie level. *)
let test_cold_hops_vs_depth () =
  let keys = random_words (Rng.create 71) 3000 in
  let config = { Config.default with shortcut_capacity = 0 } in
  let ov = build_overlay ~n:1024 ~seed:72 ~config ~keys () in
  let rng = Rng.create 73 in
  let hops =
    List.map
      (fun key ->
        let r = await (Overlay.sim ov) (fun k -> Overlay.lookup ov ~origin:(Rng.int rng 1024) ~key ~k) in
        float_of_int r.Overlay.hops)
      (Rng.sample rng 400 keys)
  in
  let mean = (Stats.summarize hops).Stats.mean in
  let depth = float_of_int (Overlay.depth ov) in
  Alcotest.(check bool)
    (Printf.sprintf "mean hops %.2f <= 0.35 x depth %.0f" mean depth)
    true
    (mean <= 0.35 *. depth)

(* Routing from a warmed origin. Origin 0's shortcut cache holds every
   other region in key order, one peer each, as batch acks teach it.
   The lookups and sequential point ranges go to keys outside those
   regions, so no exact shortcut answers them, and the showers span
   many regions. With one reference per level the routes are
   deterministic, so warm and cold runs differ only by the known peers
   the warm origin starts from. [run ~warm op] runs [op] from a cache
   reset to the warm set or emptied. *)
let warm_origin_session () =
  let keys = List.sort_uniq compare (random_words (Rng.create 91) 400) in
  let config = { Config.default with refs_per_level = 1; replication = 2 } in
  let ov = build_overlay ~n:128 ~seed:92 ~config ~keys () in
  insert_all ov keys;
  Sim.run_all (Overlay.sim ov);
  let m = Unistore_obs.Metrics.create () in
  Overlay.set_metrics ov (Some m);
  let me = Overlay.node ov 0 in
  let regions =
    List.filter (fun (n : Node.t) -> not (Bitkey.equal n.Node.path me.Node.path)) (Overlay.nodes ov)
    |> List.map (fun n -> (Node.region n, n.Node.id))
    |> List.sort_uniq (fun ((a, _), _) ((b, _), _) -> String.compare a b)
    |> List.filteri (fun i _ -> i mod 2 = 0)
  in
  let in_region ((lo, hi), _) k =
    String.compare lo k <= 0 && match hi with Some h -> String.compare k h < 0 | None -> true
  in
  let uncached = List.filter (fun k -> not (List.exists (fun r -> in_region r k) regions)) keys in
  let points = List.filter (fun k -> not (Node.covers me k)) uncached in
  let run ~warm op =
    Unistore_cache.Shortcuts.clear me.Node.shortcuts;
    if warm then
      List.iter
        (fun ((lo, hi), peer) -> Unistore_cache.Shortcuts.learn me.Node.shortcuts ~lo ~hi ~peer)
        regions;
    await (Overlay.sim ov) (op ~origin:0)
  in
  let ops =
    List.concat_map
      (fun key ->
        [
          ("lookup " ^ key, fun ~origin k -> Overlay.lookup ov ~origin ~key ~k);
          ( "sequential " ^ key,
            fun ~origin k ->
              Overlay.range ov ~origin ~strategy:Message.Sequential ~lo:key ~hi:key ~k () );
        ])
      (List.filteri (fun i _ -> i mod 4 = 0) points)
    @ List.map
        (fun (lo, hi) ->
          ( Printf.sprintf "shower [%s, %s]" lo hi,
            fun ~origin k -> Overlay.range ov ~origin ~lo ~hi ~k () ))
        [ ("", "zzzz"); ("b", "e"); ("g", "h"); ("k", "s"); ("m", "n"); ("t", "zz") ]
  in
  let answer (r : Overlay.result) =
    List.sort compare (List.map (fun (i : Store.item) -> (i.key, i.item_id)) r.items)
  in
  (ov, m, regions, ops, run, answer)

let test_warm_origin_fewer_hops () =
  let ov, m, _, ops, run, answer = warm_origin_session () in
  let depth = Overlay.depth ov in
  let cold_hops = ref 0 and warm_hops = ref 0 in
  List.iter
    (fun (label, op) ->
      let cold = run ~warm:false op in
      let warm = run ~warm:true op in
      if not (cold.Overlay.complete && warm.Overlay.complete) then
        Alcotest.failf "%s incomplete" label;
      if answer cold <> answer warm then Alcotest.failf "%s: warm answer differs from cold" label;
      if warm.hops > depth then Alcotest.failf "%s: %d hops > depth %d" label warm.hops depth;
      cold_hops := !cold_hops + cold.hops;
      warm_hops := !warm_hops + warm.hops)
    ops;
  Alcotest.(check bool)
    (Printf.sprintf "%d ops: %d hops warm < %d cold" (List.length ops) !warm_hops !cold_hops)
    true (!warm_hops < !cold_hops);
  Alcotest.(check bool) "near shortcuts used" true
    (Unistore_obs.Metrics.counter m "cache.shortcut.near" > 0)

(* The same operations with every warmed peer dead: each near peer is
   skipped and forgotten, and replicas answer completely. *)
let test_warm_origin_dead_near () =
  let ov, m, regions, ops, run, answer = warm_origin_session () in
  let cold = List.map (fun (_, op) -> answer (run ~warm:false op)) ops in
  List.iter (fun (_, peer) -> Overlay.kill ov peer) regions;
  List.iter2
    (fun (label, op) expected ->
      let r = run ~warm:true op in
      if not r.Overlay.complete then Alcotest.failf "%s incomplete with its near peers dead" label;
      if answer r <> expected then
        Alcotest.failf "%s: answer differs with its near peers dead" label)
    ops cold;
  check Alcotest.int "no dead near peer used" 0
    (Unistore_obs.Metrics.counter m "cache.shortcut.near");
  Alcotest.(check bool) "dead near peers invalidated" true
    (Unistore_obs.Metrics.counter m "cache.shortcut.invalidate" > 0)

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
        let r = await (Overlay.sim ov) (fun ret -> Overlay.lookup ov ~origin:0 ~key:k ~k:ret) in
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
      let r = await (Overlay.sim ov) (fun ret ->
          Overlay.insert ov ~origin:(i mod 32) ~key:k ~item_id:(string_of_int i) ~payload:k ~k:ret ()) in
      if not r.Overlay.complete then Alcotest.failf "insert %S failed under loss" k)
    keys;
  Sim.run_all (Overlay.sim ov);
  let ok = ref 0 in
  List.iteri
    (fun i k ->
      let r = await (Overlay.sim ov) (fun ret ->
          Overlay.lookup ov ~origin:((i * 3) mod 32) ~key:k ~k:ret) in
      if r.Overlay.complete && r.Overlay.items <> [] then incr ok)
    keys;
  Alcotest.(check bool)
    (Printf.sprintf "lookups survive 5%% loss (%d/%d)" !ok (List.length keys))
    true
    (!ok >= List.length keys * 9 / 10)

let test_update_and_gossip_convergence () =
  let config = { Config.default with replication = 4 } in
  let ov = build_overlay ~n:16 ~config ~keys:[ "k" ] () in
  let r = await (Overlay.sim ov) (fun ret ->
      Overlay.insert ov ~origin:0 ~key:"k" ~item_id:"x" ~payload:"v0" ~k:ret ()) in
  Alcotest.(check bool) "insert ok" true r.Overlay.complete;
  Sim.run_all (Overlay.sim ov);
  let r = await (Overlay.sim ov) (fun ret ->
      Overlay.update ov ~origin:1 ~key:"k" ~item_id:"x" ~payload:"v1" ~version:1 ~k:ret ()) in
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
  let r = await (Overlay.sim ov) (fun ret -> Overlay.lookup ov ~origin:5 ~key:"k" ~k:ret) in
  (match r.Overlay.items with
  | [ i ] -> check Alcotest.string "new payload" "v1" i.Store.payload
  | l -> Alcotest.failf "expected 1 item, got %d" (List.length l))

let test_stale_update_ignored () =
  let ov = build_overlay ~n:8 ~keys:[ "k" ] () in
  ignore (await (Overlay.sim ov) (fun ret ->
      Overlay.insert ov ~origin:0 ~key:"k" ~item_id:"x" ~payload:"v5" ~version:5 ~k:ret ()));
  ignore (await (Overlay.sim ov) (fun ret ->
      Overlay.update ov ~origin:1 ~key:"k" ~item_id:"x" ~payload:"v3" ~version:3 ~k:ret ()));
  Sim.run_all (Overlay.sim ov);
  let r = await (Overlay.sim ov) (fun ret -> Overlay.lookup ov ~origin:2 ~key:"k" ~k:ret) in
  match r.Overlay.items with
  | [ i ] -> check Alcotest.string "kept newer" "v5" i.Store.payload
  | l -> Alcotest.failf "expected 1 item, got %d" (List.length l)

let test_delete () =
  let config = { Config.default with replication = 3 } in
  let ov = build_overlay ~n:16 ~config ~keys:[ "k1"; "k2" ] () in
  ignore (await (Overlay.sim ov) (fun k ->
      Overlay.insert ov ~origin:0 ~key:"k1" ~item_id:"a" ~payload:"p1" ~k ()));
  ignore (await (Overlay.sim ov) (fun k ->
      Overlay.insert ov ~origin:1 ~key:"k1" ~item_id:"b" ~payload:"p2" ~k ()));
  Sim.run_all (Overlay.sim ov);
  let r = await (Overlay.sim ov) (fun k -> Overlay.delete ov ~origin:5 ~key:"k1" ~item_id:"a" ~k) in
  Alcotest.(check bool) "delete completes" true r.Overlay.complete;
  Sim.run_all (Overlay.sim ov);
  (* The other item under the same key survives; replicas are purged. *)
  let r = await (Overlay.sim ov) (fun k -> Overlay.lookup ov ~origin:2 ~key:"k1" ~k) in
  (match r.Overlay.items with
  | [ i ] -> check Alcotest.string "b remains" "b" i.Store.item_id
  | l -> Alcotest.failf "expected 1 item, got %d" (List.length l));
  let holders =
    Overlay.Oracle.responsible ov "k1"
    |> List.filter (fun (nd : Node.t) ->
           List.exists (fun (i : Store.item) -> i.Store.item_id = "a") (Store.find nd.Node.store "k1"))
  in
  check Alcotest.int "no replica still holds a" 0 (List.length holders);
  (* Deleting a non-existent item is a no-op that still completes. *)
  let r = await (Overlay.sim ov) (fun k ->
      Overlay.delete ov ~origin:0 ~key:"nothing" ~item_id:"x" ~k) in
  Alcotest.(check bool) "idempotent delete" true r.Overlay.complete

(* The peers of [key]'s replica group that hold item [item_id] live. *)
let live_holders ov ~key ~item_id =
  List.filter_map
    (fun (nd : Node.t) ->
      if List.exists (fun (i : Store.item) -> i.Store.item_id = item_id) (Store.find nd.Node.store key)
      then Some nd.Node.id
      else None)
    (Overlay.Oracle.responsible ov key)

(* A delete stays deleted. A replica that is down while the delete runs
   comes back holding the item; anti-entropy must carry the tombstone to
   it, not the item back to its group (the death certificate of Demers
   et al., PODC'87). 24 peers, replication 4, constant latency, no
   loss. Then a re-insert supersedes the tombstone. *)
let test_delete_stays_deleted () =
  let config = { Config.default with replication = 4 } in
  let keys = List.sort_uniq compare (random_words (Rng.create 39) 40) in
  let ov = build_overlay ~n:24 ~config ~keys () in
  let sim = Overlay.sim ov in
  insert_all ov keys;
  Sim.run_all sim;
  let key = List.hd keys and item_id = "id0" in
  let group = List.map (fun (nd : Node.t) -> nd.Node.id) (Overlay.Oracle.responsible ov key) in
  check Alcotest.(list int) "every replica holds the item" group (live_holders ov ~key ~item_id);
  check Alcotest.bool "a group of several" true (List.length group >= 3);
  let down = List.nth group (List.length group - 1) in
  let origin = List.find (fun id -> not (List.mem id group)) (List.init 24 Fun.id) in
  Overlay.kill ov down;
  let r = await sim (fun k -> Overlay.delete ov ~origin ~key ~item_id ~k) in
  check Alcotest.bool "delete completes" true r.Overlay.complete;
  Sim.run_all sim;
  check Alcotest.(list int) "only the replica that was down holds it" [ down ]
    (live_holders ov ~key ~item_id);
  Overlay.revive ov down;
  for _ = 1 to 3 do
    Gossip.anti_entropy_round ov;
    Sim.run_all sim
  done;
  check Alcotest.(list int) "no holder after three anti-entropy rounds" []
    (live_holders ov ~key ~item_id);
  let r = await sim (fun k -> Overlay.lookup ov ~origin ~key ~k) in
  check Alcotest.bool "lookup complete" true r.Overlay.complete;
  check Alcotest.int "lookup empty" 0 (List.length r.Overlay.items);
  ignore (await sim (fun k -> Overlay.insert ov ~origin ~key ~item_id ~payload:"again" ~k ()));
  Sim.run_all sim;
  check Alcotest.(list int) "a re-insert reaches every replica" group (live_holders ov ~key ~item_id);
  let r = await sim (fun k -> Overlay.lookup ov ~origin ~key ~k) in
  match r.Overlay.items with
  | [ i ] ->
    check Alcotest.string "re-inserted payload" "again" i.Store.payload;
    check Alcotest.int "one version past the tombstone" 2 i.Store.version
  | l -> Alcotest.failf "expected 1 item, got %d" (List.length l)

(* Deletes under 20% loss, then anti-entropy until every replica group
   agrees: no replica holds a deleted item, and every other item
   survives. *)
let test_deletes_under_loss () =
  let config = { Config.default with replication = 4 } in
  let keys = List.sort_uniq compare (random_words (Rng.create 40) 30) in
  let ov = build_overlay ~n:24 ~drop:0.2 ~config ~keys () in
  let sim = Overlay.sim ov in
  let rec acked what attempts start =
    if not (await sim start).Overlay.complete then
      if attempts >= 10 then Alcotest.failf "%s never acknowledged" what
      else acked what (attempts + 1) start
  in
  let converge what =
    let agreed () =
      List.for_all
        (fun key ->
          match
            List.map
              (fun (nd : Node.t) -> List.sort compare (Store.digest nd.Node.store))
              (Overlay.Oracle.responsible ov key)
          with
          | d :: rest -> List.for_all (( = ) d) rest
          | [] -> true)
        keys
    in
    let rec go round =
      if not (agreed ()) then
        if round >= 30 then Alcotest.failf "%s: replicas disagree after 30 rounds" what
        else begin
          Gossip.anti_entropy_round ov;
          Sim.run_all sim;
          go (round + 1)
        end
    in
    go 0
  in
  let id i = Printf.sprintf "id%d" i in
  List.iteri
    (fun i key ->
      acked ("insert " ^ key) 1 (fun k ->
          Overlay.insert ov ~origin:(i mod 24) ~key ~item_id:(id i) ~payload:key ~k ()))
    keys;
  Sim.run_all sim;
  converge "inserts";
  List.iteri
    (fun i key ->
      if i mod 2 = 0 then
        acked ("delete " ^ key) 1 (fun k -> Overlay.delete ov ~origin:((i + 7) mod 24) ~key ~item_id:(id i) ~k))
    keys;
  Sim.run_all sim;
  converge "deletes";
  List.iteri
    (fun i key ->
      let holders = live_holders ov ~key ~item_id:(id i) in
      if i mod 2 = 0 then check Alcotest.(list int) ("no replica holds deleted " ^ key) [] holders
      else
        check Alcotest.int ("every replica holds " ^ key)
          (List.length (Overlay.Oracle.responsible ov key))
          (List.length holders))
    keys

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
      if Overlay.Oracle.alive ov nd.Node.id then
        Array.iteri
          (fun l refs ->
            Array.iter
              (fun r ->
                if not (Overlay.Oracle.alive ov r) then
                  Alcotest.failf "peer%d level %d still references dead peer%d" nd.Node.id l r)
              refs)
          nd.Node.refs)
    (Overlay.nodes ov);
  (* And lookups succeed from an alive origin. *)
  let ok = ref 0 in
  List.iteri
    (fun i k ->
      if i mod 5 = 0 then begin
        let r = await (Overlay.sim ov) (fun ret -> Overlay.lookup ov ~origin:0 ~key:k ~k:ret) in
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
    let r = await (Overlay.sim ov) (fun k ->
        Overlay.range ov ~origin:(trial * 7 mod 96) ~lo ~hi ~k ()) in
    Alcotest.(check bool) (Printf.sprintf "trial %d complete" trial) true r.Overlay.complete;
    let got = List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare in
    check Alcotest.(list string) (Printf.sprintf "trial %d exact" trial) expected got
  done;
  (* Sequential and broadcast under the same jitter. *)
  let expected = range_oracle keys ~lo:"c" ~hi:"t" in
  let r = await (Overlay.sim ov) (fun k ->
      Overlay.range ov ~origin:5 ~strategy:Message.Sequential ~lo:"c" ~hi:"t" ~k ()) in
  Alcotest.(check bool) "sequential complete" true r.Overlay.complete;
  check
    Alcotest.(list string)
    "sequential exact" expected
    (List.map (fun i -> i.Store.key) r.Overlay.items |> List.sort_uniq compare);
  let r = await (Overlay.sim ov) (fun k ->
      Overlay.broadcast ov ~origin:2 ~pred:(fun _ -> true) ~k ()) in
  Alcotest.(check bool) "broadcast complete" true r.Overlay.complete;
  check Alcotest.int "broadcast sees all" (List.length keys)
    (List.length (List.sort_uniq compare (List.map (fun i -> i.Store.key) r.Overlay.items)))

(* Every peer a shower reaches sends its hit straight to the origin. On
   256 peers the shower over ["a", "{"] splits at least three levels
   deep; every [range-hit] in the trace goes to the origin, and
   [peers_hit] counts exactly the peers that sent one, plus the origin,
   which reports its own share without a message. *)
let test_shower_hits_go_to_origin () =
  let module Trace = Unistore_sim.Trace in
  let keys = List.sort_uniq compare (random_words (Rng.create 23) 600) in
  let ov = build_overlay ~n:256 ~keys () in
  insert_all ov keys;
  let tr = Trace.create () in
  Net.set_trace (Overlay.net ov) (Some tr);
  let origin = 17 in
  let r = await (Overlay.sim ov) (fun k -> Overlay.range ov ~origin ~lo:"a" ~hi:"{" ~k ()) in
  Alcotest.(check bool) "complete" true r.Overlay.complete;
  check
    Alcotest.(list string)
    "exact" (range_oracle keys ~lo:"a" ~hi:"{")
    (List.sort_uniq compare (List.map (fun i -> i.Store.key) r.Overlay.items));
  let ranges, hits =
    List.partition (fun (e : Trace.event) -> e.kind = "range")
      (List.filter (fun (e : Trace.event) -> e.kind = "range" || e.kind = "range-hit")
         (Trace.events tr))
  in
  (* Some peer other than the origin forwarded more than one sub-clip. *)
  let forwarders = List.filter (fun p -> p <> origin) (List.map (fun (e : Trace.event) -> e.src) ranges) in
  Alcotest.(check bool) "split at least three levels deep" true
    (r.Overlay.hops >= 3 && List.length forwarders > List.length (List.sort_uniq compare forwarders));
  List.iter
    (fun (e : Trace.event) ->
      if e.dst <> origin then Alcotest.failf "range-hit %d>%d does not go to the origin" e.src e.dst)
    hits;
  let senders = List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.src) hits) in
  check Alcotest.int "peers_hit = hit senders + origin"
    (List.length (List.sort_uniq compare (origin :: senders)))
    r.Overlay.peers_hit

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
  let r = await (Overlay.sim ov) (fun k ->
      Overlay.insert ov ~origin:0 ~key:"hello" ~item_id:"h" ~payload:"world" ~k ()) in
  Alcotest.(check bool) "insert works" true r.Overlay.complete;
  let r = await (Overlay.sim ov) (fun k -> Overlay.lookup ov ~origin:(n - 1) ~key:"hello" ~k) in
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
    let r = await (Overlay.sim ov) (fun k -> Overlay.lookup ov ~origin:0 ~key:it.Store.key ~k) in
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
  let r = await (Overlay.sim ov) (fun k ->
      Overlay.lookup ov ~origin:(n - 1) ~key:group0_item.Store.key ~k) in
  Alcotest.(check bool) "cross-group lookup works" true
    (r.Overlay.complete
    && List.exists
         (fun (i : Store.item) -> String.equal i.Store.item_id group0_item.Store.item_id)
         r.Overlay.items)

(* ------------------------------------------------------------------ *)
(* Batch splitting *)

(* The splitter's reference: scan every key from level 0, as
   [route_step] does, and group by the level it branches away at. *)
let reference_split (me : Node.t) ~key_of xs =
  let len = Bitkey.length me.Node.path in
  let level x =
    let key = key_of x in
    let rec go l =
      if l >= len then None
      else if Node.key_side me ~level:l key <> Bitkey.get me.Node.path l then Some l
      else go (l + 1)
    in
    go 0
  in
  let local = List.filter (fun x -> level x = None) xs in
  let forwards =
    List.filter_map
      (fun l -> match List.filter (fun x -> level x = Some l) xs with [] -> None | g -> Some (l, g))
      (List.init len Fun.id)
  in
  (local, forwards)

(* A peer from random bits and boundaries. Nested peers are real P-Grid
   positions: each level's boundary lies strictly inside the region the
   path has narrowed to so far, and the path stops where no candidate
   does. Other peers take the boundaries as drawn; every level's side is
   still an interval, which is all the splitter assumes. *)
let split_peer ~nested bits bounds =
  let bits, bounds =
    if not nested then (bits, bounds)
    else
      let pool = List.sort_uniq String.compare bounds in
      let rec go lo hi = function
        | [] -> ([], [])
        | bit :: rest -> (
          let inside =
            List.filter
              (fun b ->
                String.compare b lo > 0
                && match hi with Some h -> String.compare b h < 0 | None -> true)
              pool
          in
          match inside with
          | [] -> ([], [])
          | _ ->
            let b = List.nth inside (List.length inside / 2) in
            let bits', bounds' = if bit then go b hi rest else go lo (Some b) rest in
            (bit :: bits', b :: bounds'))
      in
      go "" None bits
  in
  let n = Node.create 0 in
  Node.set_path n
    (Bitkey.of_string (String.concat "" (List.map (fun b -> if b then "1" else "0") bits)))
    (Array.of_list bounds);
  n

type split_case = {
  nested : bool;
  bits : bool list;
  bounds : string list;
  batch : (string * int) list;  (* key-sorted; the int tells equal keys apart *)
}

let gen_split_case =
  let open QCheck2.Gen in
  let key = string_size ~gen:(char_range 'a' 'f') (0 -- 4) in
  let* depth = 0 -- 8 in
  let* nested = bool in
  let* bits = list_repeat depth bool in
  let* bounds = list_repeat depth key in
  let* keys = list_size (0 -- 40) key in
  let* shape = 0 -- 4 in
  let me = split_peer ~nested bits bounds in
  let local k = Node.covers me k in
  let keys =
    match shape with
    | 0 -> keys
    | 1 -> []
    | 2 -> List.filteri (fun i _ -> i = 0) keys
    | 3 -> List.filter local keys
    | _ -> List.filter (fun k -> not (local k)) keys
  in
  let batch =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) (List.mapi (fun i k -> (k, i)) keys)
  in
  return { nested; bits; bounds; batch }

let print_split_case c =
  Printf.sprintf "nested=%b bits=%s bounds=[%s] batch=[%s]" c.nested
    (String.concat "" (List.map (fun b -> if b then "1" else "0") c.bits))
    (String.concat ";" (List.map (Printf.sprintf "%S") c.bounds))
    (String.concat ";" (List.map (fun (k, i) -> Printf.sprintf "%S/%d" k i) c.batch))

let prop_split_batch_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"split_batch = per-key scan from level 0"
       ~print:print_split_case gen_split_case (fun c ->
         let me = split_peer ~nested:c.nested c.bits c.bounds in
         Overlay.split_batch me ~key_of:fst c.batch = reference_split me ~key_of:fst c.batch))

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
    Message.Replicate { items = [ it ]; rounds_left = 1 };
    Message.Lookup { rid = 1; key = "k"; origin = 0; hops = 0 };
    Message.Found { rid = 1; items = [ it ]; hops = 0; region; spread = [] };
    Message.Range
      {
        rid = 1; token = 2; lo = "a"; hi = "b"; clip_lo = "a"; clip_hi = Some "b"; origin = 0;
        hops = 0; strategy = Message.Shower; budget = None; filter = None;
      };
    Message.RangeHit { rid = 1; token = 2; items = [ it ]; targets = [ 3; 4 ]; hops = 0 };
    Message.InsertBatch { rid = 1; items = [ it; it ]; origin = 0; hops = 0 };
    Message.MultiLookup { rid = 1; keys = [ "k1"; "k2" ]; origin = 0; hops = 0 };
    Message.MultiFound { rid = 1; found = [ ("k1", [ it ]) ]; region; hops = 0 };
    Message.Probe
      { rid = 1; token = 2; clip_lo = ""; clip_hi = None; origin = 0; hops = 0; pred = (fun _ -> true); reduce = None };
    Message.Task { bytes = 16; run = ignore };
    Message.SyncDigest { digest = [ ("k", "i", 1) ] };
    Message.SyncRequest { wanted = [ ("k", "i") ] };
    Message.StatDigest
      {
        entries =
          [
            {
              Unistore_cache.Statcache.d_region = "r";
              d_peer = 0;
              d_version = 1;
              d_attrs = 2;
              d_sampled_at = 0.0;
              d_load = 0;
            };
          ];
      };
    Message.StatPull { regions = [ "r" ] };
    Message.StatGossip { summaries = []; rounds_left = 0 };
    Message.HotSync
      { region; owner = 0; spread = [ 0; 1 ]; items = [ it; it ]; retire = false };
  ]

(* A filtered [Range] costs its unfiltered size plus the filter's
   bytes. *)
let test_filtered_range_size () =
  let bloom = Bloom.of_list (List.init 300 string_of_int) in
  List.iter
    (function
      | Message.Range r as plain ->
        let filtered = Message.Range { r with filter = Some { Message.bloom; admits = (fun _ -> true) } } in
        check Alcotest.int "plain + filter bytes" (Message.size plain + Bloom.bytes bloom)
          (Message.size filtered);
        check Alcotest.int "375 bytes of bits and a 2-byte count" 377 (Bloom.bytes bloom)
      | _ -> ())
    message_witnesses

let test_message_sizes_positive () =
  (* Every constructor of the protocol table appears exactly once above. *)
  let kinds = List.sort compare (List.map Message.kind message_witnesses) in
  check
    Alcotest.(list string)
    "all constructors covered"
    Unistore_analysis.Protocol.(kinds pgrid)
    kinds;
  List.iter
    (fun m ->
      if Message.size m < Message.header then
        Alcotest.failf "size of %s below header (%d < %d)" (Message.kind m) (Message.size m)
          Message.header;
      if Message.size m <= 0 then Alcotest.failf "non-positive size for %s" (Message.kind m))
    message_witnesses

(* Items as batches carry them: keys from a few stems, so neighbours
   share prefixes; ids and payloads drawn from a small pool, so strings
   repeat (a gram entry's id is its whole value, once per gram), or
   equal to the item's own id; long strings and large versions, so
   varints take more than one byte. *)
let gen_items =
  QCheck2.Gen.(
    let str lo hi = string_size ~gen:(char_range 'a' 'z') (lo -- hi) in
    let* stems = list_size (1 -- 4) (str 0 70) in
    let* pool = list_size (1 -- 6) (str 0 80) in
    let field = oneof [ oneofl pool; str 0 8; return "" ] in
    let gen_item =
      let* key = map2 ( ^ ) (oneofl stems) (str 0 6) in
      let* item_id = field in
      let* payload = oneof [ field; return item_id ] in
      let+ version = oneof [ 0 -- 5; 0 -- 1_000_000 ] in
      { Store.key; item_id; payload; version }
    in
    list_size (oneof [ 0 -- 12; 30 -- 90 ]) gen_item)

(* A reference codec for {!Unistore_pgrid.Wire}'s encoding, written from
   its specification: front-coded keys, ids and payloads as literals or
   back-references to their latest earlier occurrence (whichever is
   shorter, the reference on a tie), LEB128 varints. *)
let rec put_varint b n =
  if n >= 0 && n < 128 then Buffer.add_char b (Char.chr n)
  else begin
    Buffer.add_char b (Char.chr (n land 127 lor 128));
    put_varint b (n lsr 7)
  end

let encode_items ?(prev = "") items =
  let b = Buffer.create 256 in
  let seen = ref [] in
  (* [seen]: the fields coded so far, latest first *)
  let put_field s =
    let rec distance d = function
      | [] -> None
      | x :: rest -> if String.equal x s then Some d else distance (d + 1) rest
    in
    let literal = Buffer.create 16 in
    put_varint literal (2 * String.length s);
    Buffer.add_string literal s;
    let back = Buffer.create 4 in
    Option.iter (fun d -> put_varint back ((2 * d) + 1)) (distance 0 !seen);
    Buffer.add_buffer b
      (if Buffer.length back > 0 && Buffer.length back <= Buffer.length literal then back
       else literal);
    seen := s :: !seen
  in
  ignore
    (List.fold_left
       (fun prev (i : Store.item) ->
         let n = min (String.length prev) (String.length i.key) in
         let rec shared j = if j < n && prev.[j] = i.key.[j] then shared (j + 1) else j in
         let shared = shared 0 in
         put_varint b shared;
         put_varint b (String.length i.key - shared);
         Buffer.add_string b (String.sub i.key shared (String.length i.key - shared));
         put_field i.item_id;
         put_field i.payload;
         put_varint b i.version;
         i.key)
       prev items);
  Buffer.contents b

let decode_items ?(prev = "") s =
  let pos = ref 0 in
  let rec varint shift =
    let c = Char.code s.[!pos] in
    incr pos;
    ((c land 127) lsl shift) lor if c < 128 then 0 else varint (shift + 7)
  in
  let bytes n =
    let x = String.sub s !pos n in
    pos := !pos + n;
    x
  in
  let seen = ref [] in
  let field () =
    let v = varint 0 in
    let x = if v land 1 = 0 then bytes (v / 2) else List.nth !seen (v / 2) in
    seen := x :: !seen;
    x
  in
  let rec go prev acc =
    if !pos >= String.length s then List.rev acc
    else begin
      let shared = varint 0 in
      let suffix = varint 0 in
      let key = String.sub prev 0 shared ^ bytes suffix in
      let item_id = field () in
      let payload = field () in
      let version = varint 0 in
      go key ({ Store.key; item_id; payload; version } :: acc)
    end
  in
  go prev []

let prop_wire_codec =
  qtest "wire codec: decode, exact length"
    QCheck2.Gen.(pair gen_items (string_size ~gen:(char_range 'a' 'z') (0 -- 8)))
    (fun (items, prev) ->
      let coded = encode_items ~prev items in
      decode_items ~prev coded = items
      && String.length coded = Unistore_pgrid.Wire.items_bytes ~prev items)

(* A one-byte string last seen 8,201 fields back: its back-reference
   would take three bytes, its literal takes two. *)
let test_wire_literal_when_shorter () =
  let items = (item "k" "x" "" :: List.init 4100 (fun _ -> item "k" "" "")) @ [ item "k" "x" "" ] in
  let coded = encode_items items in
  check Alcotest.int "reference length" (String.length coded)
    (Unistore_pgrid.Wire.items_bytes items);
  check Alcotest.bool "decodes" true (decode_items coded = items)

(* The size model before item lists were sized by their encoding: a
   flat 24 B plus the raw key, id and payload per item, each key of a
   [MultiFound] once. Kept as the bound the encoding must stay under. *)
let old_items_bytes items =
  List.fold_left
    (fun acc (i : Store.item) ->
      acc + 24 + String.length i.key + String.length i.item_id + String.length i.payload)
    0 items

let region_bytes (lo, hi) =
  String.length lo + (match hi with Some h -> String.length h | None -> 0) + 2

let old_size = function
  | Message.Insert { item; _ } | Message.Update { item; _ } ->
    Message.header + old_items_bytes [ item ]
  | Message.Found { items; region; spread; _ } ->
    Message.header + old_items_bytes items + region_bytes region + (4 * List.length spread)
  | Message.RangeHit { items; targets; _ } ->
    Message.header + old_items_bytes items + (4 * List.length targets)
  | Message.InsertBatch { items; _ } | Message.Replicate { items; _ } ->
    Message.header + old_items_bytes items
  | Message.MultiFound { found; region; _ } ->
    Message.header
    + List.fold_left (fun acc (k, items) -> acc + String.length k + old_items_bytes items) 0 found
    + region_bytes region
  | Message.HotSync { region; spread; items; _ } ->
    Message.header + region_bytes region + (4 * List.length spread) + 5 + old_items_bytes items
  | m -> Message.size m

let prop_no_larger_than_old =
  qtest "no item message above the old formula" gen_items (fun items ->
      let one = match items with i :: _ -> i | [] -> item "k" "i" "p" in
      let found =
        List.map (fun (i : Store.item) -> (i.key, [ i ])) items
        @ [ ("k", items) ]
      in
      List.for_all
        (fun m -> Message.size m <= old_size m)
        [
          Message.Insert { rid = 0; item = one; origin = 0; hops = 0 };
          Message.Update { rid = 0; item = one; origin = 0; hops = 0; rounds = 1 };
          Message.Replicate { items; rounds_left = 1 };
          Message.Found { rid = 0; items; hops = 0; region; spread = [ 1 ] };
          Message.RangeHit { rid = 0; token = 0; items; targets = [ 1; 2 ]; hops = 0 };
          Message.InsertBatch { rid = 0; items; origin = 0; hops = 0 };
          Message.MultiFound { rid = 0; found; region; hops = 0 };
          Message.HotSync { region; owner = 0; spread = [ 0 ]; items; retire = false };
        ])

(* A batch pays one envelope where its singletons pay one each, and its
   items never cost more than they do alone: front coding and
   back-references only shorten them. *)
let prop_batch_le_singletons =
  qtest "batch <= header + singleton payloads" gen_items (fun items ->
      let single (it : Store.item) =
        Message.size (Message.Insert { rid = 0; item = it; origin = 0; hops = 0 })
        - Message.header
      in
      Message.size (Message.InsertBatch { rid = 0; items; origin = 0; hops = 0 })
      <= Message.header + List.fold_left (fun acc it -> acc + single it) 0 items)

let prop_multi_lookup_size =
  qtest "multi-lookup size = header + key bytes"
    QCheck2.Gen.(list_size (0 -- 12) (string_size ~gen:(char_range 'a' 'z') (1 -- 24)))
    (fun keys ->
      Message.size (Message.MultiLookup { rid = 0; keys; origin = 0; hops = 0 })
      = Message.header + List.fold_left (fun acc k -> acc + String.length k) 0 keys)

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
            let r = await (Overlay.sim ov) (fun ret -> Overlay.lookup ov ~origin:0 ~key:k ~k:ret) in
            r.Overlay.complete && r.Overlay.items <> [])
          keys
      in
      List.iter (Overlay.revive ov) victims;
      ignore (Unistore_pgrid.Repair.round ov);
      Sim.run_all (Overlay.sim ov);
      ok
      && not (Unistore_analysis.Diagnostic.has_errors (Unistore_analysis.Audit.pgrid ov)))

(* ------------------------------------------------------------------ *)
(* Golden overlay trace *)

(* One scripted session on a seeded 64-peer oracle overlay under 2%
   message loss that drives every operation and forwarding path of the
   overlay: routed inserts, updates (rumors, then anti-entropy) and
   deletes; lookups repeated from one origin, so the second one takes a
   shortcut; a boost copy serving lookups; shower and sequential ranges,
   with and without a budget; prefix; a clipped broadcast with [reduce];
   bulk insert; multi-lookup; [send_task]; a shower peer killed
   mid-range; and a phase under a small [max_hops]. The rendered message
   trace and every result (items in order, complete, completeness, hops,
   peers hit, latency, then every metrics counter) are digested as (line
   count, MD5 of the newline-joined lines), recorded when the test was
   added. A change to the overlay's internals must leave both untouched.
   They were re-recorded once, when finished operations began cancelling
   their deadlines: the clock stopped jumping to dead timers between
   phases, which moved only the trace's time column and the last bits of
   seven latencies. And again when a write that leaves the owner's store
   unchanged stopped replicating (no [Replicate] for a retried insert or
   update, no [SyncItems] of unchanged items, no rumour forwarded by a
   replica that already held the item): in a copy that still drew the
   random numbers those sends would have drawn, the trace up to the
   first anti-entropy round was the old one minus 90 [Replicate] lines;
   there one replica's digest was an item short (its first [Replicate]
   had been dropped and the insert's retry no longer re-sends it, so
   anti-entropy does). Without those draws every later latency and
   drop moves, so the results were re-recorded too. And again when a
   broadcast leaf stopped answering items outside the probe's clip: the
   diff was the broadcast's items (six keys outside ["e", "t") gone),
   the bytes of its three replies and the byte counters. And again when
   each re-send began leaving a [fault.retry] marker: the trace gained
   28 marker lines, one per [retry.attempt], and every other line and
   every result stayed the same. And again when shower hits began going
   straight to the origin instead of through their parents' merge
   buffers: on a copy of this session with constant latency and no
   loss, the diff was confined to the range hits' destinations, bytes
   and times, the four ranges' latency and peers hit, and the later
   send times; with LAN latency and loss the reordered hit sends draw
   every later latency and loss from a different place in the stream,
   so everything after the first shower moved. And again when each hop
   began going to the reference whose path shares the longest prefix
   with the key: on a copy with constant latency and no loss, every
   item list and completeness stayed the same except under
   [max_hops = 1], where a partial answer holds what one hop reaches
   (the hop-limited sequential range now finds the 13 items its deepest
   first hop covers) and which shower peer is killed; hops, peers hit,
   latencies and counters moved. With LAN latency and loss the draws
   moved too: one [Unreplicate] of a delete was dropped, so two later
   ranges read the deleted item from that replica, and the hop-limited
   bulk, whose groups still go to random references, drew one that
   could not place its items within the hop limit. And again when item
   lists began to be sized by their wire encoding ({!Unistore_pgrid.Wire}):
   with the trace's byte column and the byte counters left out, both
   digests were unchanged, since latency does not depend on size. And
   again when the origin's first hop began going to the deepest known
   peer, a reference or a cached region next to the key: the first hops
   moved, and with them every later latency and loss draw. Hops and
   peers hit moved in the multi-lookup, three ranges, one delete and one
   hot lookup, latencies in most rows; the shower peer killed mid-range
   is now 4 (was 10); the hop-limited broadcast's one hop reaches other
   items; the hop-limited bulk completes; and the deleted
   [ewjmwimza/i39], which the [c, f] shower and the [d, k] sequential
   range read from a replica that missed its [Unreplicate], is no longer
   read: the new draws reach replicas that applied the delete. And again
   when a delete became the insert of a tombstone: each [delete] line
   became an [insert] and each [unreplicate] a [replicate], 6 bytes
   larger each (the tombstone's payload and version); every time, peer
   pair, outcome and result item stayed the same, and the results lost
   the four per-kind counters of the two kinds that went. And again when
   writes began answering with an empty [Found], batches with a
   [MultiFound] and every replica push became a [Replicate]: 130 lines
   changed kind from [ack] to [found], 12 from [ack-batch] to
   [multi-found] and 45 from [sync-items] to [replicate], with every
   time, peer pair, byte count, correlation id and outcome the same. The
   results lost the six counters of the three kinds that went (their
   counts moved to the survivors), and the eight inserts whose origin
   owns the key now answer with no items, like every other write. *)

let golden_overlay_trace = (1298, "b1452e3ffffe3782dd1ad3949623e9d4")
let golden_overlay_results = (301, "d1652bb66415231979ecd8c2075188df")

let overlay_session () =
  let config = { Config.default with replication = 3; timeout_ms = 400.0; retries = 3 } in
  let keys = List.sort_uniq compare (random_words (Rng.create 2026) 240) in
  let ov = build_overlay ~n:64 ~seed:7 ~model:Latency.Lan ~drop:0.02 ~config ~keys () in
  let sim = Overlay.sim ov in
  let m = Unistore_obs.Metrics.create () in
  Overlay.set_metrics ov (Some m);
  let tr = Unistore_sim.Trace.create () in
  Net.set_trace (Overlay.net ov) (Some tr);
  let lines = ref [] in
  let line s = lines := s :: !lines in
  let show (r : Overlay.result) =
    Printf.sprintf "[%s] complete=%b completeness=%h hops=%d peers=%d latency=%h"
      (String.concat ";"
         (List.map
            (fun (i : Store.item) -> Printf.sprintf "%s/%s/%d" i.key i.item_id i.version)
            r.items))
      r.complete r.completeness r.hops r.peers_hit r.latency
  in
  let run label start = line (label ^ ": " ^ show (await sim start)) in
  let ith i = List.nth keys (i mod List.length keys) in
  (* Routed single-key writes. *)
  List.iteri
    (fun i k ->
      if i < 120 then
        run ("insert " ^ k) (fun k' ->
            Overlay.insert ov ~origin:(i * 5 mod 64) ~key:k ~item_id:(Printf.sprintf "i%d" i)
              ~payload:k ~k:k' ()))
    keys;
  Sim.run_all sim;
  (* The rest in one bulk insert. *)
  let bulk =
    List.filteri (fun i _ -> i >= 120) keys
    |> List.mapi (fun i k -> item k (Printf.sprintf "b%d" i) k)
  in
  run "bulk" (fun k -> Overlay.bulk_insert ov ~origin:11 ~items:bulk ~k);
  Sim.run_all sim;
  (* Lookups, each key twice from one origin: the second takes a shortcut. *)
  for i = 0 to 19 do
    let key = ith (i * 11) in
    run ("lookup " ^ key) (fun k -> Overlay.lookup ov ~origin:9 ~key ~k);
    run ("lookup again " ^ key) (fun k -> Overlay.lookup ov ~origin:9 ~key ~k)
  done;
  run "lookup missing" (fun k -> Overlay.lookup ov ~origin:30 ~key:"no-such-key" ~k);
  (* Updates spread by rumor, then anti-entropy converges the replicas. *)
  for i = 0 to 9 do
    let key = ith (i * 7) in
    run ("update " ^ key) (fun k ->
        Overlay.update ov ~origin:(i * 3) ~key ~item_id:(Printf.sprintf "i%d" (i * 7))
          ~payload:"new" ~version:2 ~rounds:2 ~k ())
  done;
  Sim.run_all sim;
  for _ = 1 to 2 do
    Gossip.anti_entropy_round ov;
    Sim.run_all sim
  done;
  for i = 0 to 4 do
    let key = ith (i * 13) in
    run ("delete " ^ key) (fun k ->
        Overlay.delete ov ~origin:(40 + i) ~key ~item_id:(Printf.sprintf "i%d" (i * 13)) ~k)
  done;
  Sim.run_all sim;
  (* Batched lookups. *)
  let probe_keys = "no-such-key" :: List.init 30 (fun i -> ith (i * 5)) in
  let per_key, r = await sim (fun k -> Overlay.multi_lookup ov ~origin:17 ~keys:probe_keys ~k) in
  line ("multi-lookup: " ^ show r);
  List.iter (fun (key, items) -> line (Printf.sprintf "  %s -> %d" key (List.length items))) per_key;
  (* Ranges, prefix, broadcast. *)
  List.iter
    (fun (strategy, budget, lo, hi) ->
      run
        (Format.asprintf "range %a %s [%s, %s]" Message.pp_strategy strategy
           (match budget with Some b -> string_of_int b | None -> "-")
           lo hi)
        (fun k -> Overlay.range ov ~origin:21 ~strategy ?budget ~lo ~hi ~k ()))
    [
      (Message.Shower, None, "", "zzzz");
      (Message.Shower, None, "c", "f");
      (Message.Shower, None, "m", "m");
      (Message.Sequential, None, "d", "k");
      (Message.Sequential, Some 9, "", "zzzz");
      (Message.Sequential, Some 40, "h", "w");
    ];
  run "prefix" (fun k -> Overlay.prefix ov ~origin:33 ~prefix:"b" ~k);
  run "broadcast" (fun k ->
      Overlay.broadcast ov ~origin:2 ~lo:"e" ~hi:"t"
        ~reduce:(List.filter (fun (i : Store.item) -> String.length i.key mod 2 = 0))
        ~pred:(fun i -> String.length i.Store.key > 5)
        ~k ());
  (* A shipped task. *)
  Overlay.send_task ov ~src:3 ~dst:40 ~bytes:64 (fun at ->
      line (Printf.sprintf "task ran at %d" at));
  Sim.run_all sim;
  (* A boost copy: the owner advertises it, the boost answers from it. *)
  Overlay.set_config ov { config with hot_replication = true };
  let key = ith 3 in
  let owner = List.hd (Overlay.Oracle.responsible ov key) in
  let boost = (owner.Node.id + 32) mod 64 in
  owner.Node.boosts <- [ boost ];
  Net.send (Overlay.net ov) ~src:owner.Node.id ~dst:boost
    (Message.HotSync
       {
         region = Node.region owner;
         owner = owner.Node.id;
         spread = [ owner.Node.id; boost ];
         items = Store.to_list owner.Node.store;
         retire = false;
       });
  Sim.run_all sim;
  let origin =
    List.find
      (fun id -> id <> boost && not (Node.covers (Overlay.node ov id) key))
      (List.init 64 (fun i -> 63 - i))
  in
  for i = 0 to 3 do
    run ("hot lookup " ^ key) (fun k -> Overlay.lookup ov ~origin ~key ~k);
    run ("boost lookup " ^ string_of_int i) (fun k -> Overlay.lookup ov ~origin:boost ~key ~k)
  done;
  owner.Node.boosts <- [];
  Net.send (Overlay.net ov) ~src:owner.Node.id ~dst:boost
    (Message.HotSync
       { region = ("", None); owner = owner.Node.id; spread = []; items = []; retire = true });
  Sim.run_all sim;
  Overlay.set_config ov config;
  (* Kill a shower peer 3 ms into a range. *)
  let finished = ref false in
  let killed = kill_shower_peer ov tr ~origin:0 ~delay:3.0 ~finished:(fun () -> !finished) in
  run "range with a killed shower peer" (fun k ->
      Overlay.range ov ~origin:0 ~lo:"a" ~hi:"{"
        ~k:(fun r ->
          finished := true;
          k r)
        ());
  Sim.run_all sim;
  line (Printf.sprintf "killed %s" (match !killed with Some id -> string_of_int id | None -> "-"));
  (* A small hop limit. *)
  Overlay.set_config ov { config with max_hops = 1 };
  List.iter
    (fun i ->
      run "hop-limited lookup" (fun k -> Overlay.lookup ov ~origin:63 ~key:(ith i) ~k))
    [ 100; 150; 230 ];
  run "hop-limited insert" (fun k ->
      Overlay.insert ov ~origin:62 ~key:(ith 101) ~item_id:"h" ~payload:"h" ~k ());
  run "hop-limited shower" (fun k -> Overlay.range ov ~origin:61 ~lo:"" ~hi:"zzzz" ~k ());
  run "hop-limited sequential" (fun k ->
      Overlay.range ov ~origin:60 ~strategy:Message.Sequential ~lo:"" ~hi:"zzzz" ~k ());
  run "hop-limited broadcast" (fun k ->
      Overlay.broadcast ov ~origin:59 ~pred:(fun _ -> true) ~k ());
  run "hop-limited bulk" (fun k ->
      Overlay.bulk_insert ov ~origin:58
        ~items:(List.map (fun k -> item k "h" k) [ ith 5; ith 120; ith 200 ])
        ~k);
  Overlay.set_config ov config;
  Sim.run_all sim;
  (* Every counter the session left, so renamed or moved counts show. *)
  List.iter
    (fun (name, n) -> line (Printf.sprintf "counter %s %d" name n))
    (Unistore_obs.Metrics.counters m);
  let trace =
    Unistore_sim.Trace.events tr
    |> List.map (fun (e : Unistore_sim.Trace.event) ->
           Format.asprintf "%h %d>%d %s %dB #%d %a" e.time e.src e.dst e.kind e.bytes e.corr
             Unistore_sim.Trace.pp_outcome e.outcome)
  in
  (List.rev !lines, trace, m)

let test_golden_overlay_trace () =
  let results, trace, m = overlay_session () in
  (* The script reaches the paths it claims to. *)
  List.iter
    (fun name ->
      if Unistore_obs.Metrics.counter m name = 0 then Alcotest.failf "script never counted %s" name)
    [
      "cache.shortcut.hit";
      "balance.hot_serve";
      "batch.agg.elided";
      "probe.reduce.bytes.saved";
      "net.dropped";
    ];
  let digest l = (List.length l, Digest.to_hex (Digest.string (String.concat "\n" l))) in
  check Alcotest.(pair int string) "trace" golden_overlay_trace (digest trace);
  check Alcotest.(pair int string) "results" golden_overlay_results (digest results)

(* Golden routing tables: every peer's path, per-level references and
   replica list, digested as (line count, MD5 of the newline-joined
   lines) at five points: a data-median oracle build, a balanced one,
   the first after seeded kills and [Build.repair_refs], the first again
   after two joins, more kills and a [Repair.round] that migrates spares
   into depleted groups, and a bootstrap stopped mid-way (some paths
   still prefixes of others) after kills and [Build.repair_refs]. The
   traffic golden above pins the oracle's tables only through the
   messages they route; this one pins the tables themselves, and repair
   with them. A refactor of table construction or repair must leave all
   five untouched. *)

let golden_routing_tables =
  [
    ("oracle", (150, "da7153d1499ceb7dba922d690edc7420"));
    ("oracle balanced", (150, "e9638b8c527f877d030ae6a469eee587"));
    ("repair_refs", (150, "3d635cc22d234491d3d624659bc19f00"));
    ("Repair.round", (152, "a2c7ab9e90fec2856bc7b70b91bd4b90"));
    ("mid-bootstrap repair_refs", (48, "3498ca48e6de2c307b36625835317b23"));
  ]

let routing_tables ov =
  let ints l = String.concat "," (List.map string_of_int l) in
  Overlay.nodes ov
  |> List.sort (fun (a : Node.t) (b : Node.t) -> compare a.id b.id)
  |> List.map (fun (nd : Node.t) ->
         Printf.sprintf "%d%s %s | %s | %s" nd.id
           (if Overlay.Oracle.alive ov nd.id then "" else " dead")
           (Bitkey.to_string nd.path)
           (String.concat " / " (Array.to_list (Array.map (fun r -> ints (Array.to_list r)) nd.refs)))
           (ints nd.replicas))

let test_golden_routing_tables () =
  let n = 150 in
  let config = { Config.default with replication = 3 } in
  let keys = random_words (Rng.create 2027) 400 in
  let digest ov =
    let l = routing_tables ov in
    (List.length l, Digest.to_hex (Digest.string (String.concat "\n" l)))
  in
  let ov = build_overlay ~n ~seed:11 ~config ~keys () in
  let balanced = build_overlay ~n ~seed:11 ~config ~keys ~balanced:true () in
  let kill_some ?(ov = ov) seed frac =
    let rng = Rng.create seed in
    List.iter
      (fun (nd : Node.t) -> if Rng.float rng < frac then Overlay.kill ov nd.Node.id)
      (Overlay.nodes ov)
  in
  let at_oracle = digest ov in
  kill_some 5 0.25;
  Build.repair_refs ov;
  let at_repair_refs = digest ov in
  Alcotest.(check bool) "join 150" true (Build.join ov ~id:n ~bootstrap:4);
  Alcotest.(check bool) "join 151" true (Build.join ov ~id:(n + 1) ~bootstrap:77);
  kill_some 6 0.1;
  let report = Unistore_pgrid.Repair.round ov in
  Alcotest.(check bool) "the round migrated spares" true (report.Unistore_pgrid.Repair.moved > 0);
  let boot, _ =
    let rng = Rng.create 12 in
    Build.bootstrap (Sim.create ()) ~rng
      ~latency:(Latency.create (Latency.Constant 1.0) ~n:48 ~rng)
      ~config ~n:48 ~initial_data:[] ~rounds:4 ()
  in
  kill_some ~ov:boot 7 0.2;
  let paths =
    List.filter_map
      (fun (nd : Node.t) -> if Overlay.Oracle.alive boot nd.id then Some nd.path else None)
      (Overlay.nodes boot)
  in
  Alcotest.(check bool) "a live path is a proper prefix of another" true
    (List.exists
       (fun p ->
         List.exists (fun q -> Bitkey.length p < Bitkey.length q && Bitkey.is_prefix ~prefix:p q) paths)
       paths);
  Build.repair_refs boot;
  let got =
    [
      ("oracle", at_oracle);
      ("oracle balanced", digest balanced);
      ("repair_refs", at_repair_refs);
      ("Repair.round", digest ov);
      ("mid-bootstrap repair_refs", digest boot);
    ]
  in
  check Alcotest.(list (pair string (pair int string))) "tables" golden_routing_tables got

(* A write that leaves the owner's store unchanged replicates nothing:
   a bulk batch sent again, and a routed insert of an item its owner
   already holds, send no [Replicate]. *)
let test_unchanged_writes_not_replicated () =
  let config = { Config.default with replication = 3 } in
  let keys = List.sort_uniq compare (random_words (Rng.create 5) 60) in
  let ov = build_overlay ~n:32 ~seed:3 ~config ~keys () in
  let sim = Overlay.sim ov in
  let m = Unistore_obs.Metrics.create () in
  Overlay.set_metrics ov (Some m);
  let sent kind = Unistore_obs.Metrics.counter m ("net.sent." ^ kind) in
  let items = List.mapi (fun i k -> item k (Printf.sprintf "b%d" i) k) keys in
  let bulk origin =
    let r = await sim (fun k -> Overlay.bulk_insert ov ~origin ~items ~k) in
    Sim.run_all sim;
    Alcotest.(check bool) "batch complete" true r.Overlay.complete
  in
  bulk 1;
  let synced = sent "replicate" in
  Alcotest.(check bool) "the first batch replicates" true (synced > 0);
  bulk 2;
  check Alcotest.int "the same batch again replicates nothing" synced (sent "replicate");
  let key = List.hd keys in
  let r =
    await sim (fun k -> Overlay.insert ov ~origin:3 ~key ~item_id:"b0" ~payload:key ~k ())
  in
  Sim.run_all sim;
  Alcotest.(check bool) "insert acked" true r.Overlay.complete;
  check Alcotest.int "an insert of a held item starts no replication" synced (sent "replicate")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "unistore_pgrid"
    [
      ( "store",
        [
          Alcotest.test_case "put/find" `Quick test_store_put_find;
          Alcotest.test_case "versions LWW" `Quick test_store_versions;
          Alcotest.test_case "idempotent retry" `Quick test_store_equal_version_idempotent;
          Alcotest.test_case "unchanged writes are not replicated" `Quick
            test_unchanged_writes_not_replicated;
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
      ( "rtt",
        [
          Alcotest.test_case "cold tracker falls back" `Quick test_rtt_cold_fallback;
          Alcotest.test_case "peer -> class -> global" `Quick test_rtt_fallback_chain;
          Alcotest.test_case "min/max clamp" `Quick test_rtt_clamp;
          Alcotest.test_case "forget_peer" `Quick test_rtt_forget_peer;
          Alcotest.test_case "deadlines = reference EWMA" `Quick test_rtt_matches_reference;
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
          Alcotest.test_case "budgeted range same from every replica" `Quick
            test_budgeted_range_same_from_every_replica;
          Alcotest.test_case "hop-limited range is partial" `Quick test_hop_limited_range_partial;
          Alcotest.test_case "prefix search" `Quick test_prefix_search;
          Alcotest.test_case "broadcast probe" `Quick test_broadcast_probe;
          Alcotest.test_case "broadcast stays inside its clip" `Quick test_broadcast_clip;
          Alcotest.test_case "filtered shower: same messages" `Quick
            test_filtered_shower_same_messages;
          Alcotest.test_case "hops logarithmic" `Slow test_hops_logarithmic;
          Alcotest.test_case "lookups survive failures" `Quick test_failure_lookup_retries;
          Alcotest.test_case "lookups under message loss" `Quick test_lookups_under_message_loss;
          Alcotest.test_case "update + anti-entropy converge" `Quick test_update_and_gossip_convergence;
          Alcotest.test_case "stale update ignored" `Quick test_stale_update_ignored;
          Alcotest.test_case "send_task" `Quick test_send_task;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "a delete stays deleted" `Quick test_delete_stays_deleted;
          Alcotest.test_case "deletes under loss stay deleted" `Quick test_deletes_under_loss;
          Alcotest.test_case "repair_refs" `Quick test_repair_refs;
          Alcotest.test_case "load balancing under skew" `Slow test_load_balancing_under_skew;
          Alcotest.test_case "ranges exact under jittery latency" `Quick
            test_range_under_jittery_latency;
          Alcotest.test_case "shower hits go to the origin" `Quick test_shower_hits_go_to_origin;
        ] );
      ( "message",
        [
          Alcotest.test_case "every constructor sized" `Quick test_message_sizes_positive;
          Alcotest.test_case "filtered range size" `Quick test_filtered_range_size;
          prop_wire_codec;
          Alcotest.test_case "wire literal when shorter" `Quick test_wire_literal_when_shorter;
          prop_no_larger_than_old;
          prop_batch_le_singletons;
          prop_multi_lookup_size;
        ] );
      ( "routing",
        [
          Alcotest.test_case "next hop is the deepest reference" `Quick test_next_hop_deepest;
          Alcotest.test_case "tied references share the load" `Quick test_tied_refs_share_load;
          Alcotest.test_case "cold mean hops at 1024 peers <= 0.35 x depth" `Quick
            test_cold_hops_vs_depth;
          Alcotest.test_case "warm origin: same answers, fewer hops" `Quick
            test_warm_origin_fewer_hops;
          Alcotest.test_case "warm origin: dead near peers" `Quick test_warm_origin_dead_near;
        ] );
      ("failover", [ prop_failover_any_kill_set ]);
      ("batch", [ prop_split_batch_matches_reference ]);
      ( "golden",
        [
          Alcotest.test_case "overlay trace" `Quick test_golden_overlay_trace;
          Alcotest.test_case "routing tables" `Quick test_golden_routing_tables;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "builds a usable trie" `Quick test_bootstrap_builds_trie;
          Alcotest.test_case "preserves data" `Quick test_bootstrap_data_preserved;
          Alcotest.test_case "merging two overlays" `Quick test_bootstrap_merge;
          Alcotest.test_case "join a running overlay" `Quick test_join_running_overlay;
        ] );
    ]
