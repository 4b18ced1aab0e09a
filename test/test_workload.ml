(* Tests for the workload generators (unistore_workload). *)

open Unistore_util
module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple
module Namegen = Unistore_workload.Namegen
module Publications = Unistore_workload.Publications
module Skewed = Unistore_workload.Skewed
module Demo_data = Unistore_workload.Demo_data

let check = Alcotest.check

let test_namegen_deterministic () =
  let a = Namegen.person (Rng.create 5) and b = Namegen.person (Rng.create 5) in
  check Alcotest.string "same seed same name" a b;
  Alcotest.(check bool) "has two words" true (String.contains a ' ')

let test_typo_distance_one () =
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    let w = Namegen.word rng in
    let t = Namegen.typo rng w in
    let d = Strdist.levenshtein w t in
    if d < 1 || d > 2 then Alcotest.failf "typo of %S gave %S (distance %d)" w t d
  done

let test_publications_shape () =
  let rng = Rng.create 1 in
  let p = { Publications.default_params with n_authors = 10; pubs_per_author = 2; n_conferences = 4 } in
  let ds = Publications.generate rng p in
  check Alcotest.int "authors" 10 ds.Publications.authors;
  check Alcotest.int "conferences" 4 ds.Publications.conferences;
  check Alcotest.int "pubs" 20 ds.Publications.publications;
  check Alcotest.int "tuples" (10 + 20 + 4) (List.length ds.Publications.tuples);
  (* Every author tuple has the Fig. 3 core attributes. *)
  List.iter
    (fun (oid, fields) ->
      if String.length oid > 0 && oid.[0] = 'a' then begin
        List.iter
          (fun a ->
            if not (List.mem_assoc a fields) then Alcotest.failf "author %s missing %s" oid a)
          [ "name"; "age"; "num_of_pubs"; "email"; "has_published" ]
      end)
    ds.Publications.tuples

let test_publications_referential_integrity () =
  let rng = Rng.create 2 in
  let ds = Publications.generate rng Publications.default_params in
  let titles =
    List.filter_map
      (fun (tr : Triple.t) ->
        if tr.Triple.attr = "title" then Value.as_string tr.Triple.value else None)
      ds.Publications.triples
  in
  let confnames =
    List.filter_map
      (fun (tr : Triple.t) ->
        if tr.Triple.attr = "confname" then Value.as_string tr.Triple.value else None)
      ds.Publications.triples
  in
  (* has_published values reference existing titles; published_in
     reference existing confnames. *)
  List.iter
    (fun (tr : Triple.t) ->
      match (tr.Triple.attr, Value.as_string tr.Triple.value) with
      | "has_published", Some t ->
        if not (List.mem t titles) then Alcotest.failf "dangling has_published %S" t
      | "published_in", Some c ->
        if not (List.mem c confnames) then Alcotest.failf "dangling published_in %S" c
      | _ -> ())
    ds.Publications.triples

let test_publications_num_of_pubs_consistent () =
  let rng = Rng.create 3 in
  let ds = Publications.generate rng Publications.default_params in
  List.iter
    (fun (oid, fields) ->
      match List.assoc_opt "num_of_pubs" fields with
      | Some (Value.I n) ->
        let actual =
          List.length (List.filter (fun (a, _) -> String.equal a "has_published") fields)
        in
        if n <> actual then Alcotest.failf "%s: num_of_pubs=%d but %d has_published" oid n actual
      | _ -> ())
    ds.Publications.tuples

let test_publications_namespace () =
  let rng = Rng.create 4 in
  let ds = Publications.generate rng { Publications.default_params with namespace = "dblp" } in
  let namespaced s = String.length s > 5 && String.sub s 0 5 = "dblp:" in
  List.iter
    (fun (tr : Triple.t) ->
      if not (namespaced tr.Triple.attr) then Alcotest.failf "attr %s not namespaced" tr.Triple.attr;
      if not (namespaced tr.Triple.oid) then Alcotest.failf "oid %s not namespaced" tr.Triple.oid)
    ds.Publications.triples

let test_publications_typos () =
  let rng = Rng.create 5 in
  let clean = Publications.generate (Rng.copy rng) { Publications.default_params with typo_rate = 0.0 } in
  let noisy = Publications.generate rng { Publications.default_params with typo_rate = 1.0 } in
  let series ds =
    List.filter_map
      (fun (tr : Triple.t) ->
        if tr.Triple.attr = "series" then Value.as_string tr.Triple.value else None)
      ds.Publications.triples
    |> List.sort_uniq compare
  in
  let clean_ok = List.for_all (fun s -> List.mem s Publications.base_series) (series clean) in
  Alcotest.(check bool) "clean series are canonical" true clean_ok;
  Alcotest.(check bool) "noisy series deviate" true
    (List.exists (fun s -> not (List.mem s Publications.base_series)) (series noisy))

let test_skewed_distribution () =
  let rng = Rng.create 6 in
  let triples = Skewed.generate rng ~n:2000 ~skew:1.2 () in
  check Alcotest.int "count" 2000 (List.length triples);
  let freq = Hashtbl.create 64 in
  List.iter
    (fun (tr : Triple.t) ->
      let v = Option.get (Value.as_string tr.Triple.value) in
      Hashtbl.replace freq v (1 + Option.value ~default:0 (Hashtbl.find_opt freq v)))
    triples;
  let top = Hashtbl.fold (fun _ c acc -> max c acc) freq 0 in
  Alcotest.(check bool)
    (Printf.sprintf "skewed: top value has %d/2000" top)
    true
    (top > 200)

let test_demo_data_valid () =
  (* All demo tuples must decompose into valid triples. *)
  List.iter
    (fun (oid, fields) -> ignore (Triple.tuple_to_triples ~oid fields))
    (Demo_data.restaurants @ Demo_data.contacts_fb);
  check Alcotest.int "restaurants" 12 (List.length Demo_data.restaurants);
  check Alcotest.int "mappings" 3 (List.length Demo_data.contact_mappings)

let () =
  Alcotest.run "unistore_workload"
    [
      ( "namegen",
        [
          Alcotest.test_case "deterministic" `Quick test_namegen_deterministic;
          Alcotest.test_case "typo distance" `Quick test_typo_distance_one;
        ] );
      ( "publications",
        [
          Alcotest.test_case "shape" `Quick test_publications_shape;
          Alcotest.test_case "referential integrity" `Quick test_publications_referential_integrity;
          Alcotest.test_case "num_of_pubs consistent" `Quick test_publications_num_of_pubs_consistent;
          Alcotest.test_case "namespacing" `Quick test_publications_namespace;
          Alcotest.test_case "typo injection" `Quick test_publications_typos;
        ] );
      ( "skewed",
        [ Alcotest.test_case "zipf distribution" `Quick test_skewed_distribution ] );
      ( "demo_data",
        [ Alcotest.test_case "valid tuples" `Quick test_demo_data_valid ] );
    ]
