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

open Test_support

let check = Alcotest.check
let qtest ?(count = 300) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

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

let test_triple_validation () =
  Alcotest.check_raises "empty oid" (Invalid_argument "Triple.make: empty oid") (fun () ->
      ignore (Triple.make ~oid:"" ~attr:"a" (Value.I 1)));
  Alcotest.check_raises "NUL in attr" (Invalid_argument "Triple.make: NUL byte in attr") (fun () ->
      ignore (Triple.make ~oid:"x" ~attr:"a\000b" (Value.I 1)))

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

(* ------------------------------------------------------------------ *)
(* Index entries *)

(* Names over the bytes an entry id treats specially ('|' and '{'), the
   bytes its escapes use and their neighbours, and '#'/':' (Chord's id
   wrapping, namespaces). Short names over a small alphabet make shared
   prefixes common. *)
let odd_name =
  QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'z'; '|'; '#'; ':'; '{'; '}'; '\001'; '\002' ]) (1 -- 5))

(* Every kind of value, strings over the same odd bytes. *)
let odd_value =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Value.S s) (string_size ~gen:(oneofl [ 'a'; '|'; '#'; ':'; '{' ]) (0 -- 4));
        map (fun i -> Value.I i) (oneof [ int; -3 -- 3 ]);
        map (fun f -> Value.F (if Float.is_nan f then 0.0 else f)) float;
        map (fun b -> Value.B b) bool;
      ])

let odd_triple =
  QCheck2.Gen.(map (fun ((oid, attr), v) -> Triple.make ~oid ~attr v) (pair (pair odd_name odd_name) odd_value))

let pp_item (i : Unistore_pgrid.Store.item) =
  Printf.sprintf "%S %S %S" i.Unistore_pgrid.Store.key i.item_id i.payload

let prop_entry_roundtrip =
  qtest "entry roundtrip, P-Grid and Chord"
    ~print:(Format.asprintf "%a" Triple.pp) odd_triple
    (fun tr ->
      let base = Tstore.items_of_triple ~qgrams:false tr in
      List.length base = 3
      && List.for_all
           (fun i ->
             let back what = function
               | Some tr' when Triple.equal tr tr' -> true
               | _ -> QCheck2.Test.fail_reportf "%s: %s does not decode back" what (pp_item i)
             in
             back "pgrid" (Tstore.decode_entry i)
             && back "chord"
                  (Option.bind
                     (Unistore_chord.Trie_index.unwrap_item (Unistore_chord.Trie_index.wrap_item i))
                     Tstore.decode_entry))
           base
      && List.for_all
           (fun i -> Option.is_none (Tstore.decode_entry i))
           (List.filteri (fun n _ -> n >= 3) (Tstore.items_of_triple ~qgrams:true tr)))

(* The id the three base entries of a triple shared before each entry
   held only what its key does not name. *)
let shared_id (tr : Triple.t) =
  Printf.sprintf "%s|%s|%08x" tr.Triple.oid tr.Triple.attr (Hashtbl.hash (Value.encode tr.Triple.value))

(* Two triples that share at least one key: the second reuses the
   first's OID, attribute or value, or extends its OID or attribute
   past a '|' (where a shorter id could end inside a longer one). *)
let triple_pair =
  QCheck2.Gen.(
    let near x = oneof [ pure x; map (fun s -> x ^ "|" ^ s) odd_name; odd_name ] in
    let* tr = odd_triple in
    let* oid = near tr.Triple.oid and* attr = near tr.Triple.attr in
    let+ value = oneof [ pure tr.Triple.value; odd_value ] in
    (tr, Triple.make ~oid ~attr value))

let prop_entry_ids_keep_order =
  qtest ~count:2000 "entry ids keep the shared-id order"
    ~print:(fun (a, b) -> Format.asprintf "%a / %a" Triple.pp a Triple.pp b)
    triple_pair
    (fun (a, b) ->
      let sign x = compare x 0 in
      let old = sign (String.compare (shared_id a) (shared_id b)) in
      List.for_all2
        (fun (i : Unistore_pgrid.Store.item) (j : Unistore_pgrid.Store.item) ->
          (not (String.equal i.key j.key))
          || sign (String.compare i.item_id j.item_id) = old
          || QCheck2.Test.fail_reportf "%s vs %s: old order %d" (pp_item i) (pp_item j) old)
        (Tstore.items_of_triple ~qgrams:false a)
        (Tstore.items_of_triple ~qgrams:false b))

(* A semi-join filter admits every entry that can join: the A#v entry of
   a triple whose OID ([Subject]) or value ([Object]) equals a filter
   value, whatever bytes its id escapes, and every O and V entry. *)
let prop_semijoin_admits_joins =
  qtest ~count:1000 "semijoin admits every entry that can join"
    ~print:(fun (a, b) -> Format.asprintf "%a / %a" Triple.pp a Triple.pp b)
    triple_pair
    (fun (tr, other) ->
      let subj = Tstore.semijoin Tstore.Subject [ Value.S tr.Triple.oid; Value.I 3 ] in
      let obj = Tstore.semijoin Tstore.Object [ tr.Triple.value; Value.S "zz" ] in
      match Tstore.items_of_triple ~qgrams:false other with
      | [ o; av; v ] ->
        ((not (String.equal tr.Triple.oid other.Triple.oid)) || subj.Dht.admits av)
        && ((not (Value.equal tr.Triple.value other.Triple.value)) || obj.Dht.admits av)
        && List.for_all (fun i -> subj.Dht.admits i && obj.Dht.admits i) [ o; v ]
      | _ -> false)

(* Equal floats with other encodings pass; an empty filter admits no
   A#v entry. *)
let test_semijoin_floats_and_empty () =
  let av v = List.nth (Tstore.items_of_triple ~qgrams:false (Triple.make ~oid:"o|{" ~attr:"a" v)) 1 in
  let obj = Tstore.semijoin Tstore.Object [ Value.F 0.0 ] in
  Alcotest.(check bool) "-0.0 joins 0.0" true (obj.Dht.admits (av (Value.F (-0.0))));
  let obj = Tstore.semijoin Tstore.Object [ Value.F Float.nan ] in
  Alcotest.(check bool) "a NaN joins another" true
    (obj.Dht.admits (av (Value.F (Int64.float_of_bits 0x7ff0000000000001L))));
  List.iter
    (fun slot ->
      Alcotest.(check bool) "empty filter" false
        ((Tstore.semijoin slot []).Dht.admits (av (Value.S "x"))))
    [ Tstore.Subject; Tstore.Object ]

let test_decode_entry_garbage () =
  let enc = Value.encode (Value.S "x") in
  List.iter
    (fun (key, item_id, payload) ->
      match Tstore.decode_entry { Unistore_pgrid.Store.key; item_id; payload; version = 0 } with
      | None -> ()
      | Some tr -> Alcotest.failf "decoded garbage %S %S %S as %a" key item_id payload Triple.pp tr)
    [
      ("", "o|", "");
      ("O\000o", "a", enc);
      ("O\000o", "|00000000", enc);
      ("O\000o", "a|00000000", "");
      ("O\000", "a|00000000", enc);
      ("A\000t\000" ^ enc, "o", "");
      ("A\000t\000" ^ enc, "|", "");
      ("A\000t\000" ^ enc, "o{|", "");
      ("A\000t\000" ^ enc, "o{\003|", "");
      ("A\000\000" ^ enc, "o|", "");
      ("A\000t", "o|", "");
      ("V\000" ^ enc, "o|", "");
      ("V\000" ^ enc, "o|a", "");
      ("V\000" ^ enc, "o|a|", "9");
      ("V\000" ^ enc, "o|a|", "x");
      ("V\000" ^ enc, "|a|", "");
      ("V\000zz", "o|a|", "");
      ("Q\000abc", enc, "");
    ]

let test_triple_id_stable () =
  let ids tr =
    List.map (fun (i : Unistore_pgrid.Store.item) -> i.item_id) (Tstore.items_of_triple ~qgrams:false tr)
  in
  let t1 = Triple.make ~oid:"o" ~attr:"a" (Value.I 5) in
  let t2 = Triple.make ~oid:"o" ~attr:"a" (Value.I 5) in
  let t3 = Triple.make ~oid:"o" ~attr:"a" (Value.I 6) in
  check Alcotest.(list string) "same ids" (ids t1) (ids t2);
  check Alcotest.(list string) "O, A#v and V ids"
    [ Printf.sprintf "a|%08x" (Hashtbl.hash (Value.encode (Value.I 5))); "o|"; "o|a|" ]
    (ids t1);
  Alcotest.(check bool) "value changes the O id" false (String.equal (List.hd (ids t1)) (List.hd (ids t3)))

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
      let n = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.insert_tuple ts ~origin:0 ~oid fields ~k) in
      check Alcotest.int (Printf.sprintf "all triples of %s stored" oid) (List.length fields) n)
    fig3_tuples

let sample_keys_of_tuples tuples =
  List.concat_map
    (fun (oid, fields) ->
      List.concat_map
        (fun (attr, v) -> Tstore.index_keys ~qgrams:false (Triple.make ~oid ~attr v))
        fields)
    tuples

let with_both_substrates f =
  let pg = make_pgrid_dht ~sample:(sample_keys_of_tuples fig3_tuples) () in
  f "pgrid" (Tstore.create pg);
  let ch = make_chord_dht () in
  f "chord+trie" (Tstore.create ch)

(* What each stored entry's id names, whichever insert path (per
   triple or bulk) stored it: under an O, A#v or V key it decodes to a
   triple whose own entry it is, id and payload as {!Tstore.items_of_triple}
   lays them out; under a q-gram key a string value ({!Value.encode})
   holding that gram, with an empty payload. *)
let test_item_ids_name_triples_or_values () =
  let sim = Sim.create () in
  let rng = Rng.create 42 in
  let n = 24 in
  let latency = Latency.create (Latency.Constant 1.0) ~n ~rng in
  let ov =
    Build.oracle sim ~latency ~rng ~config:Config.default ~n
      ~sample_keys:(sample_keys_of_tuples fig3_tuples) ()
  in
  let ts = Tstore.create (Dht.of_pgrid ov) in
  load_fig3 ts;
  let bulk =
    List.init 40 (fun i ->
        Triple.make ~oid:(Printf.sprintf "b%d" i) ~attr:"title"
          (Value.S (Printf.sprintf "bulk title %d" (i mod 7))))
  in
  Alcotest.(check bool) "bulk insert" true
    (await sim (fun k -> Tstore.insert_bulk ts ~origin:3 bulk ~k));
  let items =
    List.concat_map
      (fun (node : Unistore_pgrid.Node.t) ->
        Unistore_pgrid.Store.to_list node.Unistore_pgrid.Node.store)
      (Unistore_pgrid.Overlay.nodes ov)
  in
  Alcotest.(check bool) "items stored" true (List.length items > 100);
  let grams = ref 0 in
  List.iter
    (fun (i : Unistore_pgrid.Store.item) ->
      let key = String.escaped i.Unistore_pgrid.Store.key in
      if String.starts_with ~prefix:"Q\000" i.Unistore_pgrid.Store.key then begin
        incr grams;
        check Alcotest.string (key ^ ": empty payload") "" i.Unistore_pgrid.Store.payload;
        match Value.decode i.item_id with
        | Some (Value.S s) ->
          let gram = String.sub i.Unistore_pgrid.Store.key 2 Keys.q in
          Alcotest.(check bool)
            (key ^ ": the value holds the gram") true
            (List.mem gram (Unistore_util.Strdist.distinct_qgrams ~q:Keys.q s))
        | _ -> Alcotest.failf "gram entry under %s names no string value" key
      end
      else
        match Tstore.decode_entry i with
        | Some tr ->
          let own (j : Unistore_pgrid.Store.item) = String.equal j.key i.key in
          check Alcotest.(list string) key [ pp_item i ]
            (List.map pp_item (List.filter own (Tstore.items_of_triple ~qgrams:true tr)))
        | None -> Alcotest.failf "undecodable entry %s" (pp_item i))
    items;
  Alcotest.(check bool) "gram entries stored" true (!grams > 0)

let test_tstore_by_oid () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let triples, meta = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.by_oid ts ~origin:1 "a1" ~k) in
      Alcotest.(check bool) (name ^ ": complete") true meta.Dht.complete;
      check Alcotest.int (name ^ ": tuple reassembled") 3 (List.length triples);
      List.iter (fun (tr : Triple.t) -> check Alcotest.string "oid" "a1" tr.Triple.oid) triples)

let test_tstore_by_attr_value () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let triples, _ = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.by_attr_value ts ~origin:2 ~attr:"name" (Value.S "bob") ~k) in
      (match triples with
      | [ tr ] -> check Alcotest.string (name ^ ": bob's oid") "a2" tr.Triple.oid
      | l -> Alcotest.failf "%s: expected 1 triple, got %d" name (List.length l));
      let none, _ = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.by_attr_value ts ~origin:2 ~attr:"name" (Value.S "eve") ~k) in
      check Alcotest.int (name ^ ": no eve") 0 (List.length none))

let test_tstore_by_attr_range () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let triples, meta =
        await (Tstore.dht ts).Dht.sim (fun k ->
            Tstore.by_attr_range ts ~origin:3 ~attr:"year" ~lo:(Value.I 2005) ~hi:(Value.I 2006) ~k)
      in
      Alcotest.(check bool) (name ^ ": complete") true meta.Dht.complete;
      check Alcotest.int (name ^ ": both years") 2 (List.length triples);
      let triples, _ =
        await (Tstore.dht ts).Dht.sim (fun k ->
            Tstore.by_attr_range ts ~origin:3 ~attr:"year" ~lo:(Value.I 2006) ~hi:(Value.I 2010) ~k)
      in
      check Alcotest.int (name ^ ": one year") 1 (List.length triples))

let test_tstore_range_excludes_other_attrs () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      (* age and num_of_pubs share the integer domain; a range on age must
         not return num_of_pubs triples. *)
      let triples, _ =
        await (Tstore.dht ts).Dht.sim (fun k ->
            Tstore.by_attr_range ts ~origin:0 ~attr:"age" ~lo:(Value.I 0) ~hi:(Value.I 100) ~k)
      in
      check Alcotest.int (name ^ ": only ages") 2 (List.length triples);
      List.iter (fun (tr : Triple.t) -> check Alcotest.string "attr" "age" tr.Triple.attr) triples)

let test_tstore_by_attr_all () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let triples, _ = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.by_attr_all ts ~origin:1 ~attr:"title" ~k) in
      check Alcotest.int (name ^ ": all titles") 2 (List.length triples))

let test_tstore_by_value () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      (* The v index finds "ICDE" wherever it appears: published_in of p1
         and series of c1. *)
      let triples, _ = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.by_value ts ~origin:4 (Value.S "ICDE") ~k) in
      check Alcotest.int (name ^ ": two attrs carry ICDE") 2 (List.length triples);
      let attrs = List.map (fun (tr : Triple.t) -> tr.Triple.attr) triples |> List.sort compare in
      check Alcotest.(list string) (name ^ ": attrs") [ "published_in"; "series" ] attrs)

let test_tstore_string_prefix () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let triples, _ =
        await (Tstore.dht ts).Dht.sim (fun k ->
            Tstore.by_attr_string_prefix ts ~origin:0 ~attr:"confname" ~string_prefix:"ICDE" ~k)
      in
      check Alcotest.int (name ^ ": ICDE confs") 1 (List.length triples))

let test_tstore_scan () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let triples, meta =
        await (Tstore.dht ts).Dht.sim (fun k -> Tstore.scan ts ~origin:0 ~pred:(fun tr ->
            match Value.as_int tr.Triple.value with Some i -> i > 2000 | None -> false) ~k)
      in
      Alcotest.(check bool) (name ^ ": complete") true meta.Dht.complete;
      check Alcotest.int (name ^ ": years found by flooding") 2 (List.length triples))

let test_tstore_similar_qgram () =
  let pg = make_pgrid_dht ~sample:(sample_keys_of_tuples fig3_tuples) () in
  let ts = Tstore.create pg in
  load_fig3 ts;
  (* "similarty queries" (typo) within distance 2 of the stored title. *)
  Alcotest.(check bool) "qgram applicable" true
    (Tstore.qgram_applicable ts ~pattern:"similarty queries" ~d:2);
  let triples, meta = await (Tstore.dht ts).Dht.sim (fun k ->
      Tstore.similar ts ~origin:0 ~attr:None ~pattern:"similarty queries" ~d:2 ~k) in
  Alcotest.(check bool) "complete" true meta.Dht.complete;
  (match triples with
  | [ tr ] -> check Alcotest.string "found the title" "p1" tr.Triple.oid
  | l -> Alcotest.failf "expected 1 match, got %d" (List.length l));
  (* Attribute restriction filters out matches on other attributes. *)
  let none, _ =
    await (Tstore.dht ts).Dht.sim (fun k ->
        Tstore.similar ts ~origin:0 ~attr:(Some "confname") ~pattern:"similarty queries" ~d:2 ~k)
  in
  check Alcotest.int "restricted to confname" 0 (List.length none)

let test_tstore_similar_fallback () =
  let pg = make_pgrid_dht ~sample:(sample_keys_of_tuples fig3_tuples) () in
  let ts = Tstore.create pg in
  load_fig3 ts;
  (* Short pattern + large d: the count bound collapses, so the q-gram
     index cannot guarantee completeness and the scan fallback fires. *)
  Alcotest.(check bool) "not applicable" false (Tstore.qgram_applicable ts ~pattern:"ICDE" ~d:2);
  let triples, _ = await (Tstore.dht ts).Dht.sim (fun k ->
      Tstore.similar ts ~origin:0 ~attr:(Some "series") ~pattern:"ICDA" ~d:2 ~k) in
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
      ignore (await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.insert ts ~origin:0 (Triple.make ~oid:(Printf.sprintf "o%d" i) ~attr:"name" (Value.S w)) ~k)))
    words;
  let via_index, _ = await (Tstore.dht ts).Dht.sim (fun k ->
      Tstore.similar ts ~origin:0 ~attr:None ~pattern:"karnstedt" ~d:2 ~k) in
  let via_scan, _ =
    await (Tstore.dht ts).Dht.sim (fun k -> Tstore.scan ts ~origin:0 ~pred:(fun tr ->
        match Value.as_string tr.Triple.value with
        | Some s -> Unistore_util.Strdist.within_distance "karnstedt" s 2
        | None -> false) ~k)
  in
  let norm l = List.map (Format.asprintf "%a" Triple.pp) l |> List.sort compare in
  check Alcotest.(list string) "index = scan" (norm via_scan) (norm via_index);
  check Alcotest.int "three matches" 3 (List.length via_index)

let test_tstore_mappings () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      Alcotest.(check bool)
        (name ^ ": mapping stored")
        true
        (await (Tstore.dht ts).Dht.sim (fun k ->
            Tstore.add_mapping ts ~origin:0 "name" "fullname" ~k));
      Alcotest.(check bool)
        (name ^ ": chained mapping stored")
        true
        (await (Tstore.dht ts).Dht.sim (fun k ->
            Tstore.add_mapping ts ~origin:1 "fullname" "person_name" ~k));
      let eq = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.equivalent_attrs ts ~origin:2 "name" ~k) in
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
      let hits, meta = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.containing ts ~origin:1 ~attr:None ~pattern:"skyline" ~k) in
      Alcotest.(check bool) (name ^ ": complete") true meta.Dht.complete;
      (match hits with
      | [ tr ] -> check Alcotest.string (name ^ ": found in titles") "p2" tr.Triple.oid
      | l -> Alcotest.failf "%s: expected 1 hit, got %d" name (List.length l));
      (* Attribute restriction. *)
      let hits, _ = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.containing ts ~origin:2 ~attr:(Some "series") ~pattern:"ICD" ~k) in
      check Alcotest.int (name ^ ": ICD in series") 1 (List.length hits);
      (* Must equal the flooding answer. *)
      let via_scan, _ =
        await (Tstore.dht ts).Dht.sim (fun k -> Tstore.scan ts ~origin:3 ~pred:(fun tr ->
            match Unistore_triple.Value.as_string tr.Triple.value with
            | Some s ->
              let rec go i =
                i + 3 <= String.length s && (String.sub s i 3 = "ICD" || go (i + 1))
              in
              go 0
            | None -> false) ~k)
      in
      let via_index, _ = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.containing ts ~origin:4 ~attr:None ~pattern:"ICD" ~k) in
      let norm l = List.map (Format.asprintf "%a" Triple.pp) l |> List.sort compare in
      check Alcotest.(list string) (name ^ ": index = scan") (norm via_scan) (norm via_index))

let test_tstore_containing_fallback () =
  let pg = make_pgrid_dht ~sample:(sample_keys_of_tuples fig3_tuples) () in
  let ts = Tstore.create pg in
  load_fig3 ts;
  Alcotest.(check bool) "short pattern not applicable" false
    (Tstore.substring_applicable ts ~pattern:"ab");
  (* Short patterns still answer correctly via flooding. *)
  let hits, _ = await (Tstore.dht ts).Dht.sim (fun k ->
      Tstore.containing ts ~origin:0 ~attr:(Some "name") ~pattern:"ob" ~k) in
  match hits with
  | [ tr ] -> check Alcotest.string "bob found" "a2" tr.Triple.oid
  | l -> Alcotest.failf "expected 1 hit, got %d" (List.length l)

let test_tstore_delete () =
  with_both_substrates (fun name ts ->
      load_fig3 ts;
      let tr = Triple.make ~oid:"a1" ~attr:"age" (Value.I 30) in
      Alcotest.(check bool) (name ^ ": delete ok") true (await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.delete ts ~origin:3 tr ~k));
      (* Gone from every access path. *)
      let by_av, _ = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.by_attr_value ts ~origin:1 ~attr:"age" (Value.I 30) ~k) in
      Alcotest.(check bool)
        (name ^ ": gone from A#v")
        true
        (List.for_all (fun (x : Triple.t) -> x.Triple.oid <> "a1") by_av);
      let by_oid, _ = await (Tstore.dht ts).Dht.sim (fun k -> Tstore.by_oid ts ~origin:2 "a1" ~k) in
      check Alcotest.int (name ^ ": tuple lost one field") 2 (List.length by_oid);
      let by_v, _ = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.by_value ts ~origin:4 (Value.I 30) ~k) in
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
        (await (Tstore.dht ts).Dht.sim (fun k ->
            Tstore.update_value ts ~origin:0 ~oid:"a1" ~attr:"age" ~old_value:(Value.I 30) (Value.I 31) ~k));
      let old_hits, _ = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.by_attr_value ts ~origin:1 ~attr:"age" (Value.I 30) ~k) in
      Alcotest.(check bool)
        (name ^ ": old value unfindable")
        true
        (List.for_all (fun (x : Triple.t) -> x.Triple.oid <> "a1") old_hits);
      let new_hits, _ = await (Tstore.dht ts).Dht.sim (fun k ->
          Tstore.by_attr_value ts ~origin:2 ~attr:"age" (Value.I 31) ~k) in
      check Alcotest.int (name ^ ": new value findable") 1 (List.length new_hits);
      (* Range queries see the new value exactly once. *)
      let in_range, _ =
        await (Tstore.dht ts).Dht.sim (fun k ->
            Tstore.by_attr_range ts ~origin:3 ~attr:"age" ~lo:(Value.I 31) ~hi:(Value.I 31) ~k)
      in
      check Alcotest.int (name ^ ": range sees update") 1 (List.length in_range))

(* Gram entries outlive deletes as hints; resolution through A#v/V
   decides. Two triples share a title: with one deleted, [similar] and
   [containing] still find the other; with both deleted, the answer is
   empty and complete; an updated value is found under its new string
   only. *)
let test_tstore_qgram_hints_after_delete () =
  with_both_substrates (fun name ts ->
      let sim = (Tstore.dht ts).Dht.sim in
      let title oid = Triple.make ~oid ~attr:"title" (Value.S "distributed skyline queries") in
      List.iter
        (fun oid ->
          Alcotest.(check bool) (name ^ ": insert " ^ oid) true
            (await sim (fun k -> Tstore.insert ts ~origin:0 (title oid) ~k)))
        [ "p1"; "p2" ];
      let search () =
        let sim_hits, r1 =
          await sim (fun k ->
              Tstore.similar ts ~origin:1 ~attr:(Some "title") ~pattern:"distributed skylne queries"
                ~d:2 ~k)
        in
        let sub_hits, r2 =
          await sim (fun k -> Tstore.containing ts ~origin:2 ~attr:None ~pattern:"skyline que" ~k)
        in
        Alcotest.(check bool) (name ^ ": complete") true (r1.Dht.complete && r2.Dht.complete);
        let oids l = List.map (fun (tr : Triple.t) -> tr.Triple.oid) l |> List.sort compare in
        (oids sim_hits, oids sub_hits)
      in
      let both = Alcotest.(pair (list string) (list string)) in
      check both (name ^ ": both found") ([ "p1"; "p2" ], [ "p1"; "p2" ]) (search ());
      Alcotest.(check bool) (name ^ ": delete p1") true
        (await sim (fun k -> Tstore.delete ts ~origin:3 (title "p1") ~k));
      check both (name ^ ": the other still found") ([ "p2" ], [ "p2" ]) (search ());
      Alcotest.(check bool) (name ^ ": delete p2") true
        (await sim (fun k -> Tstore.delete ts ~origin:3 (title "p2") ~k));
      check both (name ^ ": stale hints resolve to nothing") ([], []) (search ());
      ignore (await sim (fun k -> Tstore.insert ts ~origin:0 (title "p3") ~k));
      Alcotest.(check bool) (name ^ ": update p3") true
        (await sim (fun k ->
             Tstore.update_value ts ~origin:4 ~oid:"p3" ~attr:"title"
               ~old_value:(Value.S "distributed skyline queries")
               (Value.S "peer-to-peer range queries") ~k));
      check both (name ^ ": old string no longer matches") ([], []) (search ());
      let moved, _ =
        await sim (fun k ->
            Tstore.similar ts ~origin:5 ~attr:None ~pattern:"peer-to-peer rang queries" ~d:1 ~k)
      in
      check Alcotest.(list string) (name ^ ": the new string matches") [ "p3" ]
        (List.map (fun (tr : Triple.t) -> tr.Triple.oid) moved))

(* RDF-style oids hold '#': Chord's bucket ids wrap an item id as
   [id ^ "#" ^ key], and unwrapping must strip exactly that suffix, or
   two oids sharing their text before the '#' come back as one item. *)
let test_chord_ids_with_hash () =
  let ts = Tstore.create (make_chord_dht ()) in
  let sim = (Tstore.dht ts).Dht.sim in
  let oids = [ "urn:a#1"; "urn:a#2" ] in
  List.iter
    (fun oid ->
      ignore
        (await sim (fun k ->
             Tstore.insert ts ~origin:0 (Triple.make ~oid ~attr:"title" (Value.S "notes on C# tries")) ~k)))
    oids;
  let sorted l = List.map (fun (tr : Triple.t) -> tr.Triple.oid) l |> List.sort compare in
  List.iter
    (fun oid ->
      let got, _ = await sim (fun k -> Tstore.by_oid ts ~origin:1 oid ~k) in
      check Alcotest.(list string) ("by_oid " ^ oid) [ oid ] (sorted got))
    oids;
  let scanned, _ =
    await sim (fun k ->
        Tstore.scan ts ~origin:2 ~pred:(fun tr -> String.equal tr.Triple.attr "title") ~k)
  in
  check Alcotest.(list string) "scan" oids (sorted scanned);
  let similar, _ =
    await sim (fun k ->
        Tstore.similar ts ~origin:3 ~attr:(Some "title") ~pattern:"notes on C# trees" ~d:2 ~k)
  in
  check Alcotest.(list string) "similar" oids (sorted similar)

let test_tstore_insert_counts_messages () =
  let pg = make_pgrid_dht ~sample:[] ~n:16 () in
  let ts = Tstore.create ~qgrams:false pg in
  let dht = Tstore.dht ts in
  let before = dht.Dht.total_sent () in
  ignore (await (Tstore.dht ts).Dht.sim (fun k ->
      Tstore.insert ts ~origin:0 (Triple.make ~oid:"o" ~attr:"a" (Value.I 1)) ~k));
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
          Alcotest.test_case "decode_entry garbage" `Quick test_decode_entry_garbage;
          Alcotest.test_case "namespace" `Quick test_triple_namespace;
          Alcotest.test_case "tuple decomposition (Fig. 2)" `Quick test_tuple_decomposition;
          Alcotest.test_case "id stability" `Quick test_triple_id_stable;
          prop_entry_roundtrip;
          prop_entry_ids_keep_order;
          prop_semijoin_admits_joins;
          Alcotest.test_case "semijoin floats and empty" `Quick test_semijoin_floats_and_empty;
        ] );
      ( "keys",
        [
          Alcotest.test_case "families disjoint" `Quick test_keys_families_disjoint;
          Alcotest.test_case "attr region" `Quick test_keys_attr_region_contains;
          Alcotest.test_case "attr prefix isolated" `Quick test_keys_attr_prefix_isolated;
        ] );
      ( "tstore",
        [
          Alcotest.test_case "stored item ids name their triple or value" `Quick
            test_item_ids_name_triples_or_values;
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
          Alcotest.test_case "q-gram hints survive deletes, resolution decides" `Quick
            test_tstore_qgram_hints_after_delete;
          Alcotest.test_case "chord: oids holding '#' stay distinct" `Quick test_chord_ids_with_hash;
        ] );
    ]
