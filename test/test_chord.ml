(* Tests for the Chord baseline DHT and its trie range index. *)

open Unistore_util
module Sim = Unistore_sim.Sim
module Latency = Unistore_sim.Latency
module Store = Unistore_pgrid.Store
module Chord = Unistore_chord.Chord
module Ring = Unistore_chord.Ring
module Trie_index = Unistore_chord.Trie_index

open Test_support

let check = Alcotest.check

let mkchord ?(n = 32) ?(seed = 42) ?(config = Chord.default_config) () =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let latency = Latency.create (Latency.Constant 1.0) ~n ~rng in
  Chord.create sim ~latency ~rng ~config ~n ()

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_in_oc () =
  Alcotest.(check bool) "normal arc" true (Ring.in_oc 10 20 15);
  Alcotest.(check bool) "boundary hi" true (Ring.in_oc 10 20 20);
  Alcotest.(check bool) "boundary lo excluded" false (Ring.in_oc 10 20 10);
  Alcotest.(check bool) "wrap" true (Ring.in_oc (Ring.size - 5) 5 2);
  Alcotest.(check bool) "wrap outside" false (Ring.in_oc (Ring.size - 5) 5 100)

let test_ring_hash_range () =
  List.iter
    (fun s ->
      let h = Ring.hash_key s in
      if h < 0 || h >= Ring.size then Alcotest.failf "hash out of range: %d" h)
    [ ""; "a"; "hello"; String.make 100 'x' ]

let test_ring_hash_spread () =
  (* Uniformity smoke test: 1000 keys into 8 octants, none empty. *)
  let buckets = Array.make 8 0 in
  for i = 0 to 999 do
    let h = Ring.hash_key (Printf.sprintf "key%d" i) in
    let b = h / (Ring.size / 8) in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri (fun i c -> if c < 50 then Alcotest.failf "octant %d only got %d keys" i c) buckets

(* ------------------------------------------------------------------ *)
(* Chord core *)

let test_put_get_roundtrip () =
  let c = mkchord ~n:32 () in
  let rng = Rng.create 1 in
  let keys = List.sort_uniq compare (random_words rng 100) in
  List.iteri
    (fun i k ->
      let r = await (Chord.sim c) (fun ret ->
          Chord.put c ~origin:(i mod 32) ~key:k ~item_id:(string_of_int i) ~payload:k ~k:ret ()) in
      if not r.Chord.complete then Alcotest.failf "put %S failed" k)
    keys;
  List.iteri
    (fun i k ->
      let r = await (Chord.sim c) (fun ret -> Chord.get c ~origin:((i * 5) mod 32) ~key:k ~k:ret) in
      if not (r.Chord.complete && r.Chord.items <> []) then Alcotest.failf "get %S failed" k)
    keys

let test_get_missing () =
  let c = mkchord () in
  let r = await (Chord.sim c) (fun k -> Chord.get c ~origin:0 ~key:"missing" ~k) in
  Alcotest.(check bool) "complete" true r.Chord.complete;
  check Alcotest.int "empty" 0 (List.length r.Chord.items)

let test_hops_logarithmic () =
  let c = mkchord ~n:256 () in
  let rng = Rng.create 2 in
  let keys = random_words rng 100 in
  List.iter (fun k ->
      ignore (await (Chord.sim c) (fun ret -> Chord.put c ~origin:0 ~key:k ~item_id:k ~payload:k ~k:ret ()))) keys;
  let hops =
    List.map (fun k ->
        float_of_int (await (Chord.sim c) (fun ret -> Chord.get c ~origin:7 ~key:k ~k:ret)).Chord.hops) keys
  in
  let s = Stats.summarize hops in
  Alcotest.(check bool)
    (Printf.sprintf "mean hops %.2f <= 1.5*log2(256)" s.Stats.mean)
    true
    (s.Stats.mean <= 12.0)

let test_replication_survives_failure () =
  let config = { Chord.succ_list = 4 } in
  let c = mkchord ~n:32 ~config () in
  ignore (await (Chord.sim c) (fun k ->
      Chord.put c ~origin:0 ~key:"precious" ~item_id:"a" ~payload:"data" ~k ()));
  Sim.run_all (Chord.sim c);
  let holder = Chord.Oracle.responsible c "precious" in
  Chord.kill c holder;
  let r = await (Chord.sim c) (fun k ->
      Chord.get c ~origin:(if holder = 0 then 1 else 0) ~key:"precious" ~k) in
  Alcotest.(check bool) "found on replica" true (r.Chord.complete && r.Chord.items <> [])

let test_broadcast_reaches_all () =
  let c = mkchord ~n:48 () in
  let rng = Rng.create 3 in
  let keys = List.sort_uniq compare (random_words rng 60) in
  List.iteri
    (fun i k -> ignore (await (Chord.sim c) (fun ret ->
        Chord.put c ~origin:(i mod 48) ~key:k ~item_id:k ~payload:k ~k:ret ())))
    keys;
  Sim.run_all (Chord.sim c);
  let r = await (Chord.sim c) (fun k -> Chord.broadcast c ~origin:5 ~pred:(fun _ -> true) ~k) in
  Alcotest.(check bool) "complete" true r.Chord.complete;
  check Alcotest.int "visited every peer" 48 r.Chord.peers_hit;
  (* Every key present (replicas may duplicate). *)
  let got = List.map (fun (i : Store.item) -> i.Store.key) r.Chord.items |> List.sort_uniq compare in
  check Alcotest.(list string) "all keys seen" keys got

let test_delete () =
  let c = mkchord ~n:16 () in
  ignore (await (Chord.sim c) (fun ret ->
      Chord.put c ~origin:0 ~key:"k" ~item_id:"a" ~payload:"p1" ~k:ret ()));
  ignore (await (Chord.sim c) (fun ret ->
      Chord.put c ~origin:1 ~key:"k" ~item_id:"b" ~payload:"p2" ~k:ret ()));
  Sim.run_all (Chord.sim c);
  let r = await (Chord.sim c) (fun ret -> Chord.del c ~origin:3 ~key:"k" ~item_id:"a" ~k:ret) in
  Alcotest.(check bool) "delete completes" true r.Chord.complete;
  Sim.run_all (Chord.sim c);
  (match (await (Chord.sim c) (fun ret -> Chord.get c ~origin:5 ~key:"k" ~k:ret)).Chord.items with
  | [ i ] -> check Alcotest.string "b remains" "b" i.Store.item_id
  | l -> Alcotest.failf "expected 1 item, got %d" (List.length l));
  (* Replicas purged: killing the primary must not resurrect it. *)
  Chord.kill c (Chord.Oracle.responsible c "k");
  let r = await (Chord.sim c) (fun ret -> Chord.get c ~origin:0 ~key:"k" ~k:ret) in
  Alcotest.(check bool) "replica view clean" true
    (List.for_all (fun (i : Store.item) -> i.Store.item_id <> "a") r.Chord.items)

let test_version_lww () =
  let c = mkchord () in
  ignore (await (Chord.sim c) (fun ret ->
      Chord.put c ~origin:0 ~key:"k" ~item_id:"x" ~payload:"v1" ~version:1 ~k:ret ()));
  ignore (await (Chord.sim c) (fun ret ->
      Chord.put c ~origin:1 ~key:"k" ~item_id:"x" ~payload:"v2" ~version:2 ~k:ret ()));
  ignore (await (Chord.sim c) (fun ret ->
      Chord.put c ~origin:2 ~key:"k" ~item_id:"x" ~payload:"stale" ~version:0 ~k:ret ()));
  let r = await (Chord.sim c) (fun ret -> Chord.get c ~origin:3 ~key:"k" ~k:ret) in
  match r.Chord.items with
  | [ i ] -> check Alcotest.string "newest payload" "v2" i.Store.payload
  | l -> Alcotest.failf "expected 1 item, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Trie index *)

let test_trie_insert_range () =
  let c = mkchord ~n:32 () in
  let keys = [ "apple"; "apricot"; "banana"; "cherry"; "damson"; "elder"; "fig" ] in
  List.iteri
    (fun i k ->
      let ok = await (Chord.sim c) (fun ret ->
          Trie_index.insert c ~origin:(i mod 32) ~key:k ~item_id:(string_of_int i) ~payload:k ~k:ret ()) in
      Alcotest.(check bool) (Printf.sprintf "insert %s" k) true ok)
    keys;
  let r = await (Chord.sim c) (fun k ->
      Trie_index.range c ~origin:0 ~lo:"apricot" ~hi:"damson" ~k) in
  Alcotest.(check bool) "complete" true r.Chord.complete;
  let got = List.map (fun (i : Store.item) -> i.Store.key) r.Chord.items |> List.sort_uniq compare in
  check Alcotest.(list string) "range" [ "apricot"; "banana"; "cherry"; "damson" ] got

let test_trie_range_matches_oracle () =
  let c = mkchord ~n:48 ~seed:7 () in
  let rng = Rng.create 8 in
  let keys = List.sort_uniq compare (random_words rng 80) in
  List.iteri
    (fun i k -> ignore (await (Chord.sim c) (fun ret ->
        Trie_index.insert c ~origin:(i mod 48) ~key:k ~item_id:(string_of_int i) ~payload:k ~k:ret ())))
    keys;
  List.iter
    (fun (lo, hi) ->
      let expected = List.filter (fun k -> k >= lo && k <= hi) keys in
      let r = await (Chord.sim c) (fun k -> Trie_index.range c ~origin:3 ~lo ~hi ~k) in
      let got = List.map (fun (i : Store.item) -> i.Store.key) r.Chord.items |> List.sort_uniq compare in
      check Alcotest.(list string) (Printf.sprintf "range [%s,%s]" lo hi) expected got)
    [ ("a", "g"); ("c", "czzzz"); ("", "zzzzzzzz") ]

let test_trie_range_cost_exceeds_exact () =
  (* The trie traversal must cost several DHT gets (the paper's point:
     extra structure, extra messages). *)
  let c = mkchord ~n:64 () in
  let rng = Rng.create 9 in
  let keys = random_words rng 100 in
  List.iteri
    (fun i k -> ignore (await (Chord.sim c) (fun ret ->
        Trie_index.insert c ~origin:(i mod 64) ~key:k ~item_id:(string_of_int i) ~payload:k ~k:ret ())))
    keys;
  let before = Chord.total_sent c in
  let r = await (Chord.sim c) (fun k -> Trie_index.range c ~origin:0 ~lo:"a" ~hi:"m" ~k) in
  let msgs = Chord.total_sent c - before in
  Alcotest.(check bool) "complete" true r.Chord.complete;
  Alcotest.(check bool)
    (Printf.sprintf "trie range needed %d msgs (> 3x a lookup)" msgs)
    true (msgs > 30)

let test_trie_payload_roundtrip () =
  let c = mkchord () in
  let payload = "some:payload:with:colons\nand newlines" in
  ignore (await (Chord.sim c) (fun k ->
      Trie_index.insert c ~origin:0 ~key:"thekey" ~item_id:"a" ~payload ~k ()));
  let r = await (Chord.sim c) (fun k ->
      Trie_index.range c ~origin:1 ~lo:"thekey" ~hi:"thekey" ~k) in
  match r.Chord.items with
  | [ i ] ->
    check Alcotest.string "key restored" "thekey" i.Store.key;
    check Alcotest.string "payload restored" payload i.Store.payload;
    check Alcotest.string "item_id restored" "a" i.Store.item_id
  | l -> Alcotest.failf "expected 1 item, got %d" (List.length l)

let () =
  Alcotest.run "unistore_chord"
    [
      ( "ring",
        [
          Alcotest.test_case "in_oc arcs" `Quick test_ring_in_oc;
          Alcotest.test_case "hash range" `Quick test_ring_hash_range;
          Alcotest.test_case "hash spread" `Quick test_ring_hash_spread;
        ] );
      ( "chord",
        [
          Alcotest.test_case "put/get roundtrip" `Quick test_put_get_roundtrip;
          Alcotest.test_case "get missing" `Quick test_get_missing;
          Alcotest.test_case "hops logarithmic" `Slow test_hops_logarithmic;
          Alcotest.test_case "replication survives failure" `Quick test_replication_survives_failure;
          Alcotest.test_case "broadcast reaches all" `Quick test_broadcast_reaches_all;
          Alcotest.test_case "version LWW" `Quick test_version_lww;
          Alcotest.test_case "delete" `Quick test_delete;
        ] );
      ( "trie_index",
        [
          Alcotest.test_case "insert + range" `Quick test_trie_insert_range;
          Alcotest.test_case "range matches oracle" `Quick test_trie_range_matches_oracle;
          Alcotest.test_case "range cost exceeds exact lookup" `Quick test_trie_range_cost_exceeds_exact;
          Alcotest.test_case "payload roundtrip" `Quick test_trie_payload_roundtrip;
        ] );
    ]
