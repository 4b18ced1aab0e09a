(* Tests for the triple storage layer (unistore_triple). *)

open Unistore_util
module Sim = Unistore_sim.Sim
module Latency = Unistore_sim.Latency
module Config = Unistore_pgrid.Config
module Build = Unistore_pgrid.Build
module Chord = Unistore_chord.Chord
module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple
module Keys = Unistore_triple.Keys
module Dht = Unistore_triple.Dht
module Tstore = Unistore_triple.Tstore

let check = Alcotest.check
let qtest ?(count = 300) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let value_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Value.S s) (string_size ~gen:(char_range 'a' 'z') (0 -- 16));
        map (fun i -> Value.I i) int;
        map (fun f -> Value.F (if Float.is_nan f then 0.0 else f)) float;
        map (fun b -> Value.B b) bool;
      ])

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_compare_types () =
  Alcotest.(check bool) "B < F" true (Value.compare (Value.B true) (Value.F 0.0) < 0);
  Alcotest.(check bool) "F < I" true (Value.compare (Value.F 9e9) (Value.I 0) < 0);
  Alcotest.(check bool) "I < S" true (Value.compare (Value.I max_int) (Value.S "") < 0)

let prop_value_encode_order =
  qtest "value: encode preserves order" QCheck2.Gen.(pair value_gen value_gen) (fun (a, b) ->
      let c1 = String.compare (Value.encode a) (Value.encode b) in
      compare c1 0 = compare (Value.compare a b) 0)

let prop_value_roundtrip =
  qtest "value: decode (encode v) = v" value_gen (fun v ->
      match Value.decode (Value.encode v) with Some v' -> Value.equal v v' | None -> false)

(* The encoding before it dropped Printf: one tag byte, then the body. *)
let printf_encode v =
  let tag, body =
    match v with
    | Value.S s -> ('s', Unistore_util.Ophash.encode_string s)
    | Value.I i -> ('i', Unistore_util.Ophash.encode_int i)
    | Value.F f -> ('f', Unistore_util.Ophash.encode_float f)
    | Value.B b -> ('b', if b then "\001" else "\000")
  in
  Printf.sprintf "%c%s" tag body

let prop_value_encode_printf_form =
  qtest "value: encode = tag byte ^ body (the Printf form), decode inverts it" value_gen
    (fun v ->
      let e = Value.encode v in
      String.equal e (printf_encode v)
      && match Value.decode e with Some v' -> Value.equal v v' | None -> false)

let test_value_decode_garbage () =
  check Alcotest.(option reject) "empty" None (Option.map (fun _ -> ()) (Value.decode ""));
  check Alcotest.(option reject) "bad tag" None (Option.map (fun _ -> ()) (Value.decode "zfoo"));
  check
    Alcotest.(option reject)
    "short int" None
    (Option.map (fun _ -> ()) (Value.decode "i123"))

let test_value_type_bounds () =
  let v = Value.I 42 in
  Alcotest.(check bool) "min <= enc" true (String.compare (Value.type_min v) (Value.encode v) <= 0);
  Alcotest.(check bool) "enc <= max" true (String.compare (Value.encode v) (Value.type_max v) <= 0)

let test_value_numeric_view () =
  check Alcotest.(option (float 1e-9)) "int" (Some 42.0) (Value.to_float (Value.I 42));
  check Alcotest.(option (float 1e-9)) "float" (Some 1.5) (Value.to_float (Value.F 1.5));
  check Alcotest.(option (float 1e-9)) "string" None (Value.to_float (Value.S "x"))

(* ------------------------------------------------------------------ *)
(* Triple *)

let triple_gen =
  QCheck2.Gen.(
    let name = string_size ~gen:(char_range 'a' 'z') (1 -- 10) in
    map
      (fun ((oid, attr), v) -> Triple.make ~oid ~attr v)
      (pair (pair name name) value_gen))

let prop_triple_serialize_roundtrip =
  qtest "triple: serialize roundtrip" triple_gen (fun tr ->
      match Triple.deserialize (Triple.serialize tr) with
      | Some tr' -> Triple.equal tr tr'
      | None -> false)

let test_triple_validation () =
  Alcotest.check_raises "empty oid" (Invalid_argument "Triple.make: empty oid") (fun () ->
      ignore (Triple.make ~oid:"" ~attr:"a" (Value.I 1)));
  Alcotest.check_raises "NUL in attr" (Invalid_argument "Triple.make: NUL byte in attr") (fun () ->
      ignore (Triple.make ~oid:"x" ~attr:"a\000b" (Value.I 1)))

let test_triple_deserialize_garbage () =
  List.iter
    (fun s ->
      match Triple.deserialize s with
      | None -> ()
      | Some _ -> Alcotest.failf "deserialized garbage %S" s)
    [ ""; "nonsense"; "1:a"; "1:a1:b"; "1:a1:b3:zzz"; "1:a1:b1:i trailing" ]

let test_triple_namespace () =
  let tr = Triple.make ~oid:"o" ~attr:"dblp:title" (Value.S "x") in
  check Alcotest.string "ns" "dblp" (Triple.namespace tr);
  check Alcotest.string "local" "title" (Triple.local_name tr);
  let tr2 = Triple.make ~oid:"o" ~attr:"title" (Value.S "x") in
  check Alcotest.string "no ns" "" (Triple.namespace tr2)

let test_tuple_decomposition () =
  (* The paper's Fig. 2 example: a 3-attribute tuple becomes 3 triples. *)
  let fields =
    [ ("title", Value.S "Similarity..."); ("confname", Value.S "ICDE 2006 - WS"); ("year", Value.I 2006) ]
  in
  let triples = Triple.tuple_to_triples ~oid:"a12" fields in
  check Alcotest.int "3 triples" 3 (List.length triples);
  match Triple.triples_to_tuples triples with
  | [ (oid, fields') ] ->
    check Alcotest.string "oid" "a12" oid;
    check Alcotest.int "3 fields" 3 (List.length fields')
  | l -> Alcotest.failf "expected 1 tuple, got %d" (List.length l)

let test_triple_id_stable () =
  let t1 = Triple.make ~oid:"o" ~attr:"a" (Value.I 5) in
  let t2 = Triple.make ~oid:"o" ~attr:"a" (Value.I 5) in
  let t3 = Triple.make ~oid:"o" ~attr:"a" (Value.I 6) in
  check Alcotest.string "same id" (Triple.id t1) (Triple.id t2);
  Alcotest.(check bool) "value changes id" false (String.equal (Triple.id t1) (Triple.id t3))

(* ------------------------------------------------------------------ *)
(* Keys *)

let test_keys_families_disjoint () =
  let k1 = Keys.oid_key "x" and k2 = Keys.attr_value_key "x" (Value.S "x") in
  let k3 = Keys.value_key (Value.S "x") and k4 = Keys.qgram_key "xyz" in
  Alcotest.(check bool) "O < A is false (A < O)" true (String.compare k2 k1 < 0);
  Alcotest.(check bool) "A < Q" true (String.compare k2 k4 < 0);
  Alcotest.(check bool) "Q < V" true (String.compare k4 k3 < 0)

let test_keys_attr_region_contains () =
  let lo, hi = Keys.attr_range "year" ~lo:(Value.I 2000) ~hi:(Value.I 2010) in
  let inside = Keys.attr_value_key "year" (Value.I 2005) in
  let outside = Keys.attr_value_key "year" (Value.I 1999) in
  let other_attr = Keys.attr_value_key "yearly" (Value.I 2005) in
  Alcotest.(check bool) "2005 inside" true (lo <= inside && inside <= hi);
  Alcotest.(check bool) "1999 outside" false (lo <= outside && outside <= hi);
  Alcotest.(check bool) "other attr outside" false (lo <= other_attr && other_attr <= hi)

let test_keys_attr_prefix_isolated () =
  (* "year" region must not capture "yearly" keys. *)
  let p = Keys.attr_prefix "year" in
  let k_year = Keys.attr_value_key "year" (Value.I 2005) in
  let k_yearly = Keys.attr_value_key "yearly" (Value.I 2005) in
  let has_prefix s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  Alcotest.(check bool) "year captured" true (has_prefix k_year);
  Alcotest.(check bool) "yearly not captured" false (has_prefix k_yearly)

(* ------------------------------------------------------------------ *)
(* Tstore over both substrates *)

let make_pgrid_dht ?(n = 24) ?(seed = 42) ~sample () =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let latency = Latency.create (Latency.Constant 1.0) ~n ~rng in
  let ov = Build.oracle sim ~latency ~rng ~config:Config.default ~n ~sample_keys:sample () in
  Dht.of_pgrid ov

let make_chord_dht ?(n = 24) ?(seed = 42) () =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let latency = Latency.create (Latency.Constant 1.0) ~n ~rng in
  let chord = Chord.create sim ~latency ~rng ~config:Chord.default_config ~n () in
  Dht.of_chord_trie chord

let fig3_tuples =
  (* Authors / publications / conferences in the spirit of Fig. 3. *)
  [
    ("a1", [ ("name", Value.S "alice"); ("age", Value.I 30); ("num_of_pubs", Value.I 4) ]);
    ("a2", [ ("name", Value.S "bob"); ("age", Value.I 45); ("num_of_pubs", Value.I 12) ]);
    ("p1", [ ("title", Value.S "similarity queries"); ("year", Value.I 2006); ("published_in", Value.S "ICDE") ]);
    ("p2", [ ("title", Value.S "progressive skylines"); ("year", Value.I 2005); ("published_in", Value.S "VLDB") ]);
    ("c1", [ ("confname", Value.S "ICDE 2006"); ("series", Value.S "ICDE") ]);
    ("c2", [ ("confname", Value.S "VLDB 2005"); ("series", Value.S "VLDB") ]);
  ]

let load_fig3 ts =
  List.iter
    (fun (oid, fields) ->
      let n = Tstore.insert_tuple_sync ts ~origin:0 ~oid fields in
      check Alcotest.int (Printf.sprintf "all triples of %s stored" oid) (List.length fields) n)
    fig3_tuples

let sample_keys_of_tuples tuples =
  List.concat_map
    (fun (oid, fields) ->
      List.concat_map
        (fun (attr, v) ->
          let tr = Triple.make ~oid ~attr v in
          ignore tr;
          [ Keys.oid_key oid; Keys.attr_value_key attr v; Keys.value_key v ])
        fields)
    tuples

let with_both_substrates f =
  let pg = make_pgrid_dht ~sample:(sample_keys_of_tuples fig3_tuples) () in
  f "pgrid" (Tstore.create pg);
  let ch = make_chord_dht () in
  f "chord+trie" (Tstore.create ch)

let test_tstore_by_oid () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let triples, meta = Tstore.by_oid_sync ts ~origin:1 "a1" in
      Alcotest.(check bool) (name ^ ": complete") true meta.Tstore.complete;
      check Alcotest.int (name ^ ": tuple reassembled") 3 (List.length triples);
      List.iter (fun (tr : Triple.t) -> check Alcotest.string "oid" "a1" tr.Triple.oid) triples)

let test_tstore_by_attr_value () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let triples, _ = Tstore.by_attr_value_sync ts ~origin:2 ~attr:"name" (Value.S "bob") in
      (match triples with
      | [ tr ] -> check Alcotest.string (name ^ ": bob's oid") "a2" tr.Triple.oid
      | l -> Alcotest.failf "%s: expected 1 triple, got %d" name (List.length l));
      let none, _ = Tstore.by_attr_value_sync ts ~origin:2 ~attr:"name" (Value.S "eve") in
      check Alcotest.int (name ^ ": no eve") 0 (List.length none))

let test_tstore_by_attr_range () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let triples, meta =
        Tstore.by_attr_range_sync ts ~origin:3 ~attr:"year" ~lo:(Value.I 2005) ~hi:(Value.I 2006)
      in
      Alcotest.(check bool) (name ^ ": complete") true meta.Tstore.complete;
      check Alcotest.int (name ^ ": both years") 2 (List.length triples);
      let triples, _ =
        Tstore.by_attr_range_sync ts ~origin:3 ~attr:"year" ~lo:(Value.I 2006) ~hi:(Value.I 2010)
      in
      check Alcotest.int (name ^ ": one year") 1 (List.length triples))

let test_tstore_range_excludes_other_attrs () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      (* age and num_of_pubs share the integer domain; a range on age must
         not return num_of_pubs triples. *)
      let triples, _ =
        Tstore.by_attr_range_sync ts ~origin:0 ~attr:"age" ~lo:(Value.I 0) ~hi:(Value.I 100)
      in
      check Alcotest.int (name ^ ": only ages") 2 (List.length triples);
      List.iter (fun (tr : Triple.t) -> check Alcotest.string "attr" "age" tr.Triple.attr) triples)

let test_tstore_by_attr_all () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let triples, _ = Tstore.by_attr_all_sync ts ~origin:1 ~attr:"title" in
      check Alcotest.int (name ^ ": all titles") 2 (List.length triples))

let test_tstore_by_value () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      (* The v index finds "ICDE" wherever it appears: published_in of p1
         and series of c1. *)
      let triples, _ = Tstore.by_value_sync ts ~origin:4 (Value.S "ICDE") in
      check Alcotest.int (name ^ ": two attrs carry ICDE") 2 (List.length triples);
      let attrs = List.map (fun (tr : Triple.t) -> tr.Triple.attr) triples |> List.sort compare in
      check Alcotest.(list string) (name ^ ": attrs") [ "published_in"; "series" ] attrs)

let test_tstore_string_prefix () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let triples, _ =
        Tstore.by_attr_string_prefix_sync ts ~origin:0 ~attr:"confname" ~string_prefix:"ICDE"
      in
      check Alcotest.int (name ^ ": ICDE confs") 1 (List.length triples))

let test_tstore_scan () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let triples, meta =
        Tstore.scan_sync ts ~origin:0 ~pred:(fun tr ->
            match Value.as_int tr.Triple.value with Some i -> i > 2000 | None -> false)
      in
      Alcotest.(check bool) (name ^ ": complete") true meta.Tstore.complete;
      check Alcotest.int (name ^ ": years found by flooding") 2 (List.length triples))

let test_tstore_similar_qgram () =
  let pg = make_pgrid_dht ~sample:(sample_keys_of_tuples fig3_tuples) () in
  let ts = Tstore.create pg in
  load_fig3 ts;
  (* "similarty queries" (typo) within distance 2 of the stored title. *)
  Alcotest.(check bool) "qgram applicable" true
    (Tstore.qgram_applicable ts ~pattern:"similarty queries" ~d:2);
  let triples, meta = Tstore.similar_sync ts ~origin:0 ~pattern:"similarty queries" ~d:2 () in
  Alcotest.(check bool) "complete" true meta.Tstore.complete;
  (match triples with
  | [ tr ] -> check Alcotest.string "found the title" "p1" tr.Triple.oid
  | l -> Alcotest.failf "expected 1 match, got %d" (List.length l));
  (* Attribute restriction filters out matches on other attributes. *)
  let none, _ =
    Tstore.similar_sync ts ~origin:0 ~attr:"confname" ~pattern:"similarty queries" ~d:2 ()
  in
  check Alcotest.int "restricted to confname" 0 (List.length none)

let test_tstore_similar_fallback () =
  let pg = make_pgrid_dht ~sample:(sample_keys_of_tuples fig3_tuples) () in
  let ts = Tstore.create pg in
  load_fig3 ts;
  (* Short pattern + large d: the count bound collapses, so the q-gram
     index cannot guarantee completeness and the scan fallback fires. *)
  Alcotest.(check bool) "not applicable" false (Tstore.qgram_applicable ts ~pattern:"ICDE" ~d:2);
  let triples, _ = Tstore.similar_sync ts ~origin:0 ~attr:"series" ~pattern:"ICDA" ~d:2 () in
  (match triples with
  | [ tr ] -> (
    match Value.as_string tr.Triple.value with
    | Some s -> check Alcotest.string "found by fallback" "ICDE" s
    | None -> Alcotest.fail "non-string match")
  | l -> Alcotest.failf "expected 1 match, got %d" (List.length l))

let test_tstore_similar_equals_scan () =
  (* The q-gram path must return exactly what flooding returns. *)
  let pg = make_pgrid_dht ~sample:[] ~n:16 () in
  let ts = Tstore.create pg in
  let words = [ "karnstedt"; "karnstadt"; "sattler"; "hauswirth"; "schmidt"; "karlstedt" ] in
  List.iteri
    (fun i w ->
      ignore (Tstore.insert_sync ts ~origin:0 (Triple.make ~oid:(Printf.sprintf "o%d" i) ~attr:"name" (Value.S w))))
    words;
  let via_index, _ = Tstore.similar_sync ts ~origin:0 ~pattern:"karnstedt" ~d:2 () in
  let via_scan, _ =
    Tstore.scan_sync ts ~origin:0 ~pred:(fun tr ->
        match Value.as_string tr.Triple.value with
        | Some s -> Unistore_util.Strdist.within_distance "karnstedt" s 2
        | None -> false)
  in
  let norm l = List.map Triple.id l |> List.sort compare in
  check Alcotest.(list string) "index = scan" (norm via_scan) (norm via_index);
  check Alcotest.int "three matches" 3 (List.length via_index)

let test_tstore_mappings () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      Alcotest.(check bool)
        (name ^ ": mapping stored")
        true
        (Tstore.add_mapping_sync ts ~origin:0 "name" "fullname");
      Alcotest.(check bool)
        (name ^ ": chained mapping stored")
        true
        (Tstore.add_mapping_sync ts ~origin:1 "fullname" "person_name");
      let eq = Tstore.equivalent_attrs_sync ts ~origin:2 "name" in
      check
        Alcotest.(list string)
        (name ^ ": closure")
        [ "fullname"; "name"; "person_name" ]
        eq)

let test_tstore_containing () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      (* 'skyline' occurs inside one title; 'ICDE' inside confname/series/
         published_in values. *)
      let hits, meta = Tstore.containing_sync ts ~origin:1 ~pattern:"skyline" () in
      Alcotest.(check bool) (name ^ ": complete") true meta.Tstore.complete;
      (match hits with
      | [ tr ] -> check Alcotest.string (name ^ ": found in titles") "p2" tr.Triple.oid
      | l -> Alcotest.failf "%s: expected 1 hit, got %d" name (List.length l));
      (* Attribute restriction. *)
      let hits, _ = Tstore.containing_sync ts ~origin:2 ~attr:"series" ~pattern:"ICD" () in
      check Alcotest.int (name ^ ": ICD in series") 1 (List.length hits);
      (* Must equal the flooding answer. *)
      let via_scan, _ =
        Tstore.scan_sync ts ~origin:3 ~pred:(fun tr ->
            match Unistore_triple.Value.as_string tr.Triple.value with
            | Some s ->
              let rec go i =
                i + 3 <= String.length s && (String.sub s i 3 = "ICD" || go (i + 1))
              in
              go 0
            | None -> false)
      in
      let via_index, _ = Tstore.containing_sync ts ~origin:4 ~pattern:"ICD" () in
      let norm l = List.map Triple.id l |> List.sort compare in
      check Alcotest.(list string) (name ^ ": index = scan") (norm via_scan) (norm via_index))

let test_tstore_containing_fallback () =
  let pg = make_pgrid_dht ~sample:(sample_keys_of_tuples fig3_tuples) () in
  let ts = Tstore.create pg in
  load_fig3 ts;
  Alcotest.(check bool) "short pattern not applicable" false
    (Tstore.substring_applicable ts ~pattern:"ab");
  (* Short patterns still answer correctly via flooding. *)
  let hits, _ = Tstore.containing_sync ts ~origin:0 ~attr:"name" ~pattern:"ob" () in
  match hits with
  | [ tr ] -> check Alcotest.string "bob found" "a2" tr.Triple.oid
  | l -> Alcotest.failf "expected 1 hit, got %d" (List.length l)

let test_tstore_delete () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let tr = Triple.make ~oid:"a1" ~attr:"age" (Value.I 30) in
      Alcotest.(check bool) (name ^ ": delete ok") true (Tstore.delete_sync ts ~origin:3 tr);
      (* Gone from every access path. *)
      let by_av, _ = Tstore.by_attr_value_sync ts ~origin:1 ~attr:"age" (Value.I 30) in
      Alcotest.(check bool)
        (name ^ ": gone from A#v")
        true
        (List.for_all (fun (x : Triple.t) -> x.Triple.oid <> "a1") by_av);
      let by_oid, _ = Tstore.by_oid_sync ts ~origin:2 "a1" in
      check Alcotest.int (name ^ ": tuple lost one field") 2 (List.length by_oid);
      let by_v, _ = Tstore.by_value_sync ts ~origin:4 (Value.I 30) in
      Alcotest.(check bool)
        (name ^ ": gone from v")
        true
        (List.for_all (fun (x : Triple.t) -> x.Triple.oid <> "a1") by_v))

let test_tstore_update_value () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      Alcotest.(check bool)
        (name ^ ": update ok")
        true
        (Tstore.update_value_sync ts ~origin:0 ~oid:"a1" ~attr:"age" ~old_value:(Value.I 30)
           (Value.I 31));
      let old_hits, _ = Tstore.by_attr_value_sync ts ~origin:1 ~attr:"age" (Value.I 30) in
      Alcotest.(check bool)
        (name ^ ": old value unfindable")
        true
        (List.for_all (fun (x : Triple.t) -> x.Triple.oid <> "a1") old_hits);
      let new_hits, _ = Tstore.by_attr_value_sync ts ~origin:2 ~attr:"age" (Value.I 31) in
      check Alcotest.int (name ^ ": new value findable") 1 (List.length new_hits);
      (* Range queries see the new value exactly once. *)
      let in_range, _ =
        Tstore.by_attr_range_sync ts ~origin:3 ~attr:"age" ~lo:(Value.I 31) ~hi:(Value.I 31)
      in
      check Alcotest.int (name ^ ": range sees update") 1 (List.length in_range))

let test_tstore_insert_counts_messages () =
  let pg = make_pgrid_dht ~sample:[] ~n:16 () in
  let ts = Tstore.create ~qgrams:false pg in
  let dht = Tstore.dht ts in
  let before = dht.Dht.total_sent () in
  ignore (Tstore.insert_sync ts ~origin:0 (Triple.make ~oid:"o" ~attr:"a" (Value.I 1)));
  let msgs = dht.Dht.total_sent () - before in
  (* Three index entries, each routed through the overlay. *)
  Alcotest.(check bool) (Printf.sprintf "3 index inserts cost messages (%d)" msgs) true (msgs >= 3)

let () =
  Alcotest.run "unistore_triple"
    [
      ( "value",
        [
          Alcotest.test_case "type order" `Quick test_value_compare_types;
          Alcotest.test_case "decode garbage" `Quick test_value_decode_garbage;
          Alcotest.test_case "type bounds" `Quick test_value_type_bounds;
          Alcotest.test_case "numeric view" `Quick test_value_numeric_view;
          prop_value_encode_order;
          prop_value_roundtrip;
          prop_value_encode_printf_form;
        ] );
      ( "triple",
        [
          Alcotest.test_case "validation" `Quick test_triple_validation;
          Alcotest.test_case "deserialize garbage" `Quick test_triple_deserialize_garbage;
          Alcotest.test_case "namespace" `Quick test_triple_namespace;
          Alcotest.test_case "tuple decomposition (Fig. 2)" `Quick test_tuple_decomposition;
          Alcotest.test_case "id stability" `Quick test_triple_id_stable;
          prop_triple_serialize_roundtrip;
        ] );
      ( "keys",
        [
          Alcotest.test_case "families disjoint" `Quick test_keys_families_disjoint;
          Alcotest.test_case "attr region" `Quick test_keys_attr_region_contains;
          Alcotest.test_case "attr prefix isolated" `Quick test_keys_attr_prefix_isolated;
        ] );
      ( "tstore",
        [
          Alcotest.test_case "by_oid" `Quick test_tstore_by_oid;
          Alcotest.test_case "by_attr_value" `Quick test_tstore_by_attr_value;
          Alcotest.test_case "by_attr_range" `Quick test_tstore_by_attr_range;
          Alcotest.test_case "range excludes other attrs" `Quick test_tstore_range_excludes_other_attrs;
          Alcotest.test_case "by_attr_all" `Quick test_tstore_by_attr_all;
          Alcotest.test_case "by_value" `Quick test_tstore_by_value;
          Alcotest.test_case "string prefix" `Quick test_tstore_string_prefix;
          Alcotest.test_case "scan (flooding)" `Quick test_tstore_scan;
          Alcotest.test_case "similar via q-grams" `Quick test_tstore_similar_qgram;
          Alcotest.test_case "similar fallback" `Quick test_tstore_similar_fallback;
          Alcotest.test_case "similar = scan" `Quick test_tstore_similar_equals_scan;
          Alcotest.test_case "schema mappings" `Quick test_tstore_mappings;
          Alcotest.test_case "insert message cost" `Quick test_tstore_insert_counts_messages;
          Alcotest.test_case "substring search" `Quick test_tstore_containing;
          Alcotest.test_case "substring fallback" `Quick test_tstore_containing_fallback;
          Alcotest.test_case "delete" `Quick test_tstore_delete;
          Alcotest.test_case "update value" `Quick test_tstore_update_value;
        ] );
    ]
