(* End-to-end tests of the Unistore facade: VQL over a live simulated
   deployment, checked against a local reference evaluator. *)

module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple
module Ast = Unistore_vql.Ast
module Parser = Unistore_vql.Parser
module Algebra = Unistore_vql.Algebra
module Binding = Unistore_qproc.Binding
module Ranking = Unistore_qproc.Ranking
module Engine = Unistore_qproc.Engine
module Physical = Unistore_qproc.Physical
module Publications = Unistore_workload.Publications
module Demo_data = Unistore_workload.Demo_data
module Latency = Unistore_sim.Latency

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Reference evaluator: brute force over the in-memory triples          *)

let ref_eval (triples : Triple.t list) (q : Ast.query) : Binding.t list =
  let eval_pattern p = List.filter_map (Binding.match_triple p) triples in
  let eval_branch (patterns, filters) =
    let joined =
      List.fold_left
        (fun rows p ->
          let candidates = eval_pattern p in
          List.concat_map (fun b -> List.filter_map (Binding.compatible b) candidates) rows)
        [ Binding.empty ] patterns
    in
    List.fold_left
      (fun rows f -> List.filter (fun b -> Algebra.eval_pred (Binding.lookup b) f) rows)
      joined filters
  in
  let filtered =
    List.concat_map eval_branch ((q.Ast.patterns, q.Ast.filters) :: q.Ast.union_branches)
  in
  let ordered =
    match q.Ast.order with
    | Some (Ast.OrderBy items) -> Ranking.order_by items filtered
    | Some (Ast.Skyline items) -> Ranking.skyline items filtered
    | None -> filtered
  in
  let projected =
    match q.Ast.projection with
    | Some vs -> List.map (Binding.project vs) ordered
    | None -> ordered
  in
  let distinct =
    if q.Ast.distinct then begin
      let seen = Hashtbl.create 32 in
      List.filter
        (fun b ->
          let fp = Binding.fingerprint b in
          if Hashtbl.mem seen fp then false
          else begin
            Hashtbl.replace seen fp ();
            true
          end)
        projected
    end
    else projected
  in
  match q.Ast.limit with
  | Some n -> List.filteri (fun i _ -> i < n) distinct
  | None -> distinct

let fingerprints rows = List.map Binding.fingerprint rows |> List.sort compare

let check_against_oracle name store dataset ?strategy ?expand_mappings src =
  let q = Parser.parse_exn src in
  let expected = ref_eval dataset.Publications.triples q in
  match Unistore.query store ?strategy ?expand_mappings src with
  | Error e -> Alcotest.failf "%s: query failed: %s" name e
  | Ok report ->
    Alcotest.(check bool) (name ^ ": complete") true report.Engine.complete;
    check
      Alcotest.(list string)
      (name ^ ": rows match reference")
      (fingerprints expected)
      (fingerprints report.Engine.rows);
    report

(* ------------------------------------------------------------------ *)
(* Shared deployment                                                   *)

let make_store ?(peers = 32) ?(overlay = Unistore.Pgrid) ?(seed = 42) ?(typo_rate = 0.15) () =
  let rng = Unistore_util.Rng.create 7 in
  let ds = Publications.generate rng { Publications.default_params with typo_rate } in
  let config = { Unistore.default_config with peers; overlay; seed } in
  let store = Unistore.create ~sample_keys:(Publications.sample_keys ds) config in
  let stored = Unistore.load store ds.Publications.tuples in
  Alcotest.(check bool) "all triples stored" true (stored = List.length ds.Publications.triples);
  Unistore.set_stats_of_triples store ds.Publications.triples;
  Unistore.settle store;
  (store, ds)

let paper_query =
  "SELECT ?name,?age,?cnt \
   WHERE {(?a,'name',?name) (?a,'age',?age) \
   (?a,'num_of_pubs',?cnt) \
   (?a,'has_published',?title) (?p,'title',?title) \
   (?p,'published_in',?conf) (?c,'confname',?conf) \
   (?c,'series',?sr) FILTER edist(?sr,'ICDE')<3 \
   } \
   ORDER BY SKYLINE OF ?age MIN, ?cnt MAX"

(* ------------------------------------------------------------------ *)

let test_simple_selection () =
  let store, ds = make_store () in
  ignore (check_against_oracle "eq-selection" store ds "SELECT ?a WHERE { (?a,'series',?s) FILTER ?s = 'ICDE' }")

let test_range_query () =
  let store, ds = make_store () in
  ignore
    (check_against_oracle "range" store ds
       "SELECT ?a, ?v WHERE { (?a,'age',?v) FILTER ?v >= 30 AND ?v < 50 }")

let test_join_query () =
  let store, ds = make_store () in
  ignore
    (check_against_oracle "join" store ds
       "SELECT ?name, ?title WHERE { (?a,'name',?name) (?a,'has_published',?title) (?p,'title',?title) \
        (?p,'year',?y) FILTER ?y >= 2003 }")

let test_var_attr_query () =
  let store, ds = make_store () in
  ignore
    (check_against_oracle "var-attr" store ds
       "SELECT ?a, ?attr WHERE { (?a,?attr,'databases') }")

let test_order_limit_distinct () =
  let store, ds = make_store () in
  let r =
    check_against_oracle "order+limit" store ds
      "SELECT ?name, ?age WHERE { (?a,'name',?name) (?a,'age',?age) } ORDER BY ?age DESC LIMIT 5"
  in
  check Alcotest.int "5 rows" 5 (List.length r.Engine.rows);
  ignore
    (check_against_oracle "distinct" store ds
       "SELECT DISTINCT ?s WHERE { (?c,'series',?s) }")

let test_paper_skyline_query () =
  let store, ds = make_store () in
  let r = check_against_oracle "paper skyline" store ds paper_query in
  Alcotest.(check bool) "nonempty skyline" true (List.length r.Engine.rows > 0);
  (* Independent Pareto check: no returned row dominated by any other
     returned row. *)
  let goals = [ ("age", Ast.Min); ("cnt", Ast.Max) ] in
  List.iter
    (fun row ->
      if List.exists (fun other -> Ranking.dominates goals other row) r.Engine.rows then
        Alcotest.fail "returned row is dominated")
    r.Engine.rows

let test_similarity_query () =
  let store, ds = make_store () in
  (* Long pattern -> q-gram index path. *)
  let some_title =
    List.find_map
      (fun (tr : Triple.t) ->
        if String.equal tr.Triple.attr "title" then Value.as_string tr.Triple.value else None)
      ds.Publications.triples
    |> Option.get
  in
  let rng = Unistore_util.Rng.create 99 in
  let typod = Unistore_workload.Namegen.typo rng some_title in
  let src =
    Printf.sprintf "SELECT ?p WHERE { (?p,'title',?t) FILTER edist(?t,'%s') <= 2 }" typod
  in
  ignore (check_against_oracle "similarity" store ds src)

let test_substring_query () =
  let store, ds = make_store () in
  (* Find a word inside an existing title and query with contains(). *)
  let title =
    List.find_map
      (fun (tr : Triple.t) ->
        if String.equal tr.Triple.attr "title" then Value.as_string tr.Triple.value else None)
      ds.Publications.triples
    |> Option.get
  in
  let word =
    match String.split_on_char ' ' title with w :: _ -> w | [] -> title
  in
  let src =
    Printf.sprintf "SELECT ?p, ?t WHERE { (?p,'title',?t) FILTER contains(?t,'%s') }" word
  in
  let r = check_against_oracle "substring" store ds src in
  (* The q-gram path must beat flooding on messages at this size. *)
  Alcotest.(check bool)
    (Printf.sprintf "uses index (%d msgs)" r.Engine.messages)
    true (r.Engine.messages < 40)

let test_topn_traversal_query () =
  let store, ds = make_store () in
  let src = "SELECT ?a, ?v WHERE { (?a,'age',?v) } ORDER BY ?v ASC LIMIT 4" in
  (* The plan uses the traversal... *)
  (match Unistore.explain store src with
  | Ok plan -> (
    match (List.hd plan.Physical.steps).Physical.access with
    | Unistore_qproc.Cost.ATopN ("age", 4) -> ()
    | a -> Alcotest.failf "expected topn access, got %a" Unistore_qproc.Cost.pp_access a)
  | Error e -> Alcotest.fail e);
  (* ... and the answer is a correct top-4: the value multiset matches the
     reference, and every returned row really exists (ties at the cut-off
     may legitimately pick different authors). *)
  let q = Parser.parse_exn src in
  let expected = ref_eval ds.Publications.triples q in
  let all_rows = ref_eval ds.Publications.triples { q with Ast.limit = None; order = None } in
  match Unistore.query store src with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "complete" true r.Engine.complete;
    let ages rows =
      List.map (fun b -> Option.get (Option.bind (Binding.find b "v") Value.as_int)) rows
      |> List.sort compare
    in
    check Alcotest.(list int) "smallest ages" (ages expected) (ages r.Engine.rows);
    let valid = fingerprints all_rows in
    List.iter
      (fun row ->
        if not (List.mem (Binding.fingerprint row) valid) then Alcotest.fail "fabricated row")
      r.Engine.rows

let test_union_query () =
  let store, ds = make_store () in
  (* Authors interested in databases OR systems. *)
  let src =
    "SELECT ?x, ?t WHERE { (?x,'interested_in',?t) FILTER ?t = 'databases' } UNION {      (?x,'interested_in',?t) FILTER ?t = 'systems' }"
  in
  let r = check_against_oracle "union" store ds src in
  Alcotest.(check bool) "nonempty" true (List.length r.Engine.rows > 0);
  (* Same rows as the equivalent OR filter. *)
  let or_src =
    "SELECT ?x, ?t WHERE { (?x,'interested_in',?t) FILTER ?t = 'databases' OR ?t = 'systems' }"
  in
  (match Unistore.query store or_src with
  | Ok r2 ->
    check Alcotest.(list string) "union = OR" (fingerprints r2.Engine.rows)
      (fingerprints r.Engine.rows)
  | Error e -> Alcotest.fail e);
  (* Heterogeneous branches + distinct + post clauses. *)
  ignore
    (check_against_oracle "union heterogeneous" store ds
       "SELECT DISTINCT ?x WHERE { (?x,'series',?s) FILTER ?s = 'ICDE' } UNION {         (?x,'year',?y) FILTER ?y >= 2006 } LIMIT 50");
  (* Explain shows branch plans. *)
  match Unistore.explain store src with
  | Ok plan -> check Alcotest.int "one union branch" 1 (List.length plan.Physical.branches)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Ranking/similarity fast paths: P-Grid runs them, Chord cannot; both
   overlays must produce the reference result sets.                    *)

let canonical_skyline_query =
  "SELECT ?a,?age,?cnt WHERE { (?a,'age',?age) (?a,'num_of_pubs',?cnt) } \
   ORDER BY SKYLINE OF ?age MIN, ?cnt MAX"

let test_skyline_pushdown_agrees () =
  (* The canonical-shape skyline runs as a leaf-reduced scan on P-Grid
     (single broadcast step — asserted, so the pushdown actually
     engaged), and as a regular plan on Chord; both must produce the
     reference rows. *)
  let pgrid, ds = make_store () in
  let chord, _ = make_store ~overlay:Unistore.Chord_trie () in
  let r_pgrid = check_against_oracle "skyline pushdown" pgrid ds canonical_skyline_query in
  (match r_pgrid.Engine.plan.Physical.steps with
  | [ s ] when s.Physical.access = Unistore_qproc.Cost.ABroadcast -> ()
  | _ -> Alcotest.fail "expected the pushdown's single broadcast step");
  let r_chord = check_against_oracle "skyline on chord" chord ds canonical_skyline_query in
  check
    Alcotest.(list string)
    "pgrid = chord" (fingerprints r_chord.Engine.rows) (fingerprints r_pgrid.Engine.rows)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  go 0

let test_rank_paths_agree_across_overlays () =
  (* Gram pruning and batching change which postings are fetched, never
     which triples are returned: both overlays must match brute-force
     filtering of the dataset. *)
  let module Tstore = Unistore_triple.Tstore in
  let pgrid, ds = make_store () in
  let chord, _ = make_store ~overlay:Unistore.Chord_trie () in
  let title =
    List.find_map
      (fun (tr : Triple.t) ->
        if String.equal tr.Triple.attr "title" then Value.as_string tr.Triple.value else None)
      ds.Publications.triples
    |> Option.get
  in
  let sub = if String.length title >= 8 then String.sub title 1 7 else title in
  let ids (found : Triple.t list) =
    List.map
      (fun (tr : Triple.t) -> tr.Triple.oid ^ "/" ^ Value.to_display tr.Triple.value)
      found
    |> List.sort_uniq compare
  in
  let sim store =
    let found, (meta : Tstore.meta) =
      Tstore.similar_sync (Unistore.tstore store) ~origin:3 ~attr:"title" ~pattern:title ~d:2 ()
    in
    Alcotest.(check bool) "similar complete" true meta.Tstore.complete;
    ids found
  in
  let containing store =
    let found, (meta : Tstore.meta) =
      Tstore.containing_sync (Unistore.tstore store) ~origin:5 ~attr:"title" ~pattern:sub ()
    in
    Alcotest.(check bool) "containing complete" true meta.Tstore.complete;
    ids found
  in
  let brute keep =
    List.filter
      (fun (tr : Triple.t) ->
        String.equal tr.Triple.attr "title"
        && match Value.as_string tr.Triple.value with Some s -> keep s | None -> false)
      ds.Publications.triples
    |> ids
  in
  let reference = brute (fun s -> Unistore_util.Strdist.levenshtein title s <= 2) in
  Alcotest.(check bool) "similarity query has matches" true (reference <> []);
  check Alcotest.(list string) "sim: pgrid = brute force" reference (sim pgrid);
  check Alcotest.(list string) "sim: chord = brute force" reference (sim chord);
  let sub_reference = brute (fun s -> contains_sub s sub) in
  Alcotest.(check bool) "substring query has matches" true (sub_reference <> []);
  check Alcotest.(list string) "substring: pgrid = brute force" sub_reference (containing pgrid);
  check Alcotest.(list string) "substring: chord = brute force" sub_reference (containing chord)

let test_strategies_agree () =
  let store, ds = make_store () in
  let src =
    "SELECT ?name WHERE { (?a,'name',?name) (?a,'has_published',?t) (?p,'title',?t) \
     (?p,'published_in',?cn) (?c,'confname',?cn) (?c,'series',?s) FILTER ?s = 'VLDB' }"
  in
  let r1 = check_against_oracle "centralized" store ds ~strategy:Unistore.Centralized src in
  let r2 = check_against_oracle "mutant" store ds ~strategy:Unistore.Mutant src in
  check Alcotest.(list string) "same rows" (fingerprints r1.Engine.rows) (fingerprints r2.Engine.rows);
  Alcotest.(check bool) "mutant shipped bytes" true (r2.Engine.bytes_shipped > 0);
  check Alcotest.int "centralized ships nothing" 0 r1.Engine.bytes_shipped

let test_chord_substrate_agrees () =
  let store, ds = make_store ~overlay:Unistore.Chord_trie () in
  ignore
    (check_against_oracle "chord eq" store ds
       "SELECT ?a WHERE { (?a,'series',?s) FILTER ?s = 'ICDE' }");
  ignore
    (check_against_oracle "chord range" store ds
       "SELECT ?a, ?v WHERE { (?a,'age',?v) FILTER ?v >= 30 AND ?v < 50 }");
  (* Mutant silently degrades to centralized on Chord. *)
  match Unistore.query store ~strategy:Unistore.Mutant "SELECT ?a WHERE { (?a,'series',?s) }" with
  | Ok r -> (
    match r.Engine.strategy with
    | Unistore.Centralized -> ()
    | Unistore.Mutant -> Alcotest.fail "chord cannot run mutant plans")
  | Error e -> Alcotest.fail e

let test_mapping_expansion () =
  let store, ds = make_store () in
  Alcotest.(check bool) "fb contacts loaded" true (Unistore.load store Demo_data.contacts_fb > 0);
  List.iter
    (fun (a, b) -> Alcotest.(check bool) "mapping stored" true (Unistore.add_mapping store a b))
    Demo_data.contact_mappings;
  Unistore.settle store;
  ignore ds;
  let src = "SELECT ?n WHERE { (?u,'name',?n) FILTER prefix(?n,'Marcel') }" in
  (match Unistore.query store src with
  | Ok r -> check Alcotest.int "no expansion: fb rows invisible" 0 (List.length r.Engine.rows)
  | Error e -> Alcotest.fail e);
  match Unistore.query store ~expand_mappings:true src with
  | Ok r -> (
    match r.Engine.rows with
    | [ row ] ->
      check
        Alcotest.(option string)
        "found through mapping" (Some "Marcel Karnstedt")
        (Option.bind (Binding.find row "n") Value.as_string)
    | l -> Alcotest.failf "expected 1 row, got %d" (List.length l))
  | Error e -> Alcotest.fail e

let test_explain () =
  let store, _ = make_store () in
  match Unistore.explain store paper_query with
  | Ok plan ->
    check Alcotest.int "8 steps" 8 (List.length plan.Physical.steps);
    (* Must be renderable. *)
    let s = Format.asprintf "%a" Unistore.pp_plan plan in
    Alcotest.(check bool) "plan renders" true (String.length s > 50)
  | Error e -> Alcotest.fail e

let test_parse_error_propagates () =
  let store, _ = make_store ~peers:8 () in
  match Unistore.query store "SELECT garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let test_failures_reported () =
  let store, ds = make_store ~peers:32 () in
  (* Kill a third of the peers: queries should either stay correct or be
     flagged PARTIAL — never silently wrong-and-complete. *)
  Unistore.kill_peers store [ 1; 4; 7; 10; 13; 16; 19; 22; 25; 28 ];
  let q = Parser.parse_exn "SELECT ?a, ?v WHERE { (?a,'age',?v) }" in
  let expected = fingerprints (ref_eval ds.Publications.triples q) in
  match Unistore.query store "SELECT ?a, ?v WHERE { (?a,'age',?v) }" with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let got = fingerprints r.Engine.rows in
    let subset = List.for_all (fun fp -> List.mem fp expected) got in
    Alcotest.(check bool) "answers are a subset of the truth" true subset;
    if r.Engine.complete then
      check Alcotest.(list string) "complete implies exact" expected got

let test_pp_table_renders () =
  let store, _ = make_store ~peers:16 () in
  match Unistore.query store "SELECT ?n WHERE { (?a,'name',?n) } LIMIT 3" with
  | Ok r ->
    let s = Format.asprintf "%a" Unistore.pp_table r in
    Alcotest.(check bool) "has header" true (String.length s > 0);
    Alcotest.(check bool) "mentions rows" true
      (let sub = "row(s)" in
       let rec go i =
         i + String.length sub <= String.length s
         && (String.sub s i (String.length sub) = sub || go (i + 1))
       in
       go 0)
  | Error e -> Alcotest.fail e

let test_delete_and_update_through_queries () =
  let store, ds = make_store ~peers:24 () in
  (* Pick a concrete author triple from the dataset. *)
  let victim =
    List.find
      (fun (tr : Triple.t) -> String.equal tr.Triple.attr "age")
      ds.Publications.triples
  in
  let oid = victim.Triple.oid in
  let old_age = Option.get (Value.as_int victim.Triple.value) in
  (* Update: the author ages by a year. *)
  Alcotest.(check bool) "update ok" true
    (Unistore.update_value store ~oid ~attr:"age" ~old_value:(Value.I old_age)
       (Value.I (old_age + 1)));
  let q v = Printf.sprintf "SELECT ?a WHERE { (?a,'age',?x) FILTER ?x = %d }" v in
  (match Unistore.query store (q (old_age + 1)) with
  | Ok r ->
    Alcotest.(check bool) "new age visible" true
      (List.exists
         (fun row -> Option.bind (Binding.find row "a") Value.as_string = Some oid)
         r.Engine.rows)
  | Error e -> Alcotest.fail e);
  (match Unistore.query store (q old_age) with
  | Ok r ->
    Alcotest.(check bool) "old age gone" true
      (List.for_all
         (fun row -> Option.bind (Binding.find row "a") Value.as_string <> Some oid)
         r.Engine.rows)
  | Error e -> Alcotest.fail e);
  (* Delete: the whole field disappears from query results. *)
  let tr = Triple.make ~oid ~attr:"age" (Value.I (old_age + 1)) in
  Alcotest.(check bool) "delete ok" true (Unistore.delete_triple store tr);
  match Unistore.query store (q (old_age + 1)) with
  | Ok r ->
    Alcotest.(check bool) "deleted triple unqueryable" true
      (List.for_all
         (fun row -> Option.bind (Binding.find row "a") Value.as_string <> Some oid)
         r.Engine.rows)
  | Error e -> Alcotest.fail e

let test_distributed_stats_collection () =
  let store, ds = make_store ~peers:16 () in
  (* The flooding-based collection must agree with the oracle catalog. *)
  let oracle = Unistore_qproc.Qstats.of_triples ds.Publications.triples in
  Unistore.refresh_stats store;
  let collected = Unistore.stats store in
  check Alcotest.int "total triples" oracle.Unistore_qproc.Qstats.total_triples
    collected.Unistore_qproc.Qstats.total_triples;
  check Alcotest.int "distinct oids" oracle.Unistore_qproc.Qstats.distinct_oids
    collected.Unistore_qproc.Qstats.distinct_oids;
  check Alcotest.int "attribute count"
    (List.length oracle.Unistore_qproc.Qstats.attrs)
    (List.length collected.Unistore_qproc.Qstats.attrs);
  List.iter
    (fun (a, (o : Unistore_qproc.Qstats.attr_stats)) ->
      match List.assoc_opt a collected.Unistore_qproc.Qstats.attrs with
      | Some c ->
        check Alcotest.int (a ^ " count") o.Unistore_qproc.Qstats.count
          c.Unistore_qproc.Qstats.count;
        check Alcotest.int (a ^ " distinct") o.Unistore_qproc.Qstats.distinct
          c.Unistore_qproc.Qstats.distinct
      | None -> Alcotest.failf "attribute %s missing from collected stats" a)
    oracle.Unistore_qproc.Qstats.attrs

let test_query_tracing () =
  let store, _ = make_store ~peers:24 () in
  let tr = Unistore.start_trace store in
  (match Unistore.query store "SELECT ?n WHERE { (?a,'name',?n) (?a,'age',?v) FILTER ?v >= 30 }" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let module Trace = Unistore_sim.Trace in
  Alcotest.(check bool) "events recorded" true (Trace.length tr > 0);
  let kinds = List.map (fun (k, _, _) -> k) (Trace.by_kind tr) in
  Alcotest.(check bool) "range messages traced" true
    (List.mem "range" kinds || List.mem "lookup" kinds);
  let delivered, _, _, in_flight = Trace.outcome_counts tr in
  Alcotest.(check bool) "messages delivered" true (delivered > 0);
  check Alcotest.int "nothing stuck" 0 in_flight;
  (* The trace count matches the metering on a quiet network. *)
  let before = Trace.length tr in
  (match Unistore.query store "SELECT ?a WHERE { (?a,'series',?s) FILTER ?s = 'ICDE' }" with
  | Ok r ->
    Unistore.settle store;
    check Alcotest.int "trace delta = report messages" r.Engine.messages
      (Trace.length tr - before)
  | Error e -> Alcotest.fail e);
  (* After stopping, nothing further is recorded. *)
  Unistore.stop_trace store;
  let final = Trace.length tr in
  match Unistore.query store "SELECT ?n WHERE { (?a,'name',?n) }" with
  | Ok _ -> check Alcotest.int "stopped" final (Trace.length tr)
  | Error e -> Alcotest.fail e

let test_planetlab_latency_config () =
  let rng = Unistore_util.Rng.create 7 in
  let ds = Publications.generate rng Publications.default_params in
  let config =
    { Unistore.default_config with peers = 24; latency = Latency.Planetlab; seed = 3 }
  in
  let store = Unistore.create ~sample_keys:(Publications.sample_keys ds) config in
  ignore (Unistore.load store ds.Publications.tuples);
  Unistore.set_stats_of_triples store ds.Publications.triples;
  Unistore.settle store;
  (* The querying origin can happen to own the key region (then the
     query is local and fast); try several origins and require that the
     remote ones show wide-area latencies. *)
  let max_latency = ref 0.0 in
  List.iter
    (fun origin ->
      match
        Unistore.query store ~origin "SELECT ?a WHERE { (?a,'series',?s) FILTER ?s = 'ICDE' }"
      with
      | Ok r ->
        Alcotest.(check bool) "complete" true r.Engine.complete;
        max_latency := Float.max !max_latency r.Engine.latency
      | Error e -> Alcotest.fail e)
    [ 0; 5; 11; 17; 23 ];
  Alcotest.(check bool) "wide-area latency visible (>10ms)" true (!max_latency > 10.0)

(* ------------------------------------------------------------------ *)
(* Property: random conjunctive queries agree with the reference
   evaluator. One shared deployment serves all generated queries. *)

let shared_store : (Unistore.t * Publications.dataset) Lazy.t =
  lazy
    (let rng = Unistore_util.Rng.create 71 in
     let ds =
       Publications.generate rng
         { Publications.default_params with n_authors = 10; pubs_per_author = 2; typo_rate = 0.0 }
     in
     let config = { Unistore.default_config with peers = 16; seed = 72 } in
     let store = Unistore.create ~sample_keys:(Publications.sample_keys ds) config in
     ignore (Unistore.load store ds.Publications.tuples);
     Unistore.set_stats_of_triples store ds.Publications.triples;
     Unistore.settle store;
     (store, ds))

let gen_random_query : Ast.query QCheck2.Gen.t =
  let open QCheck2.Gen in
  let num_attr = oneofl [ "age"; "num_of_pubs"; "year" ] in
  let str_attr = oneofl [ "name"; "title"; "published_in"; "confname"; "series"; "interested_in" ] in
  let var v = Ast.TVar v in
  let cmp = oneofl [ Ast.Eq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Neq ] in
  let num_filter v =
    let* op = cmp and* c = 0 -- 60 in
    return (Ast.ECmp (op, Ast.EVar v, Ast.EConst (Value.I c)))
  in
  let pat s a o = Ast.mk_pattern (var s) (Ast.TConst (Value.S a)) (var o) in
  let single =
    let* a = num_attr and* f = num_filter "v" in
    return (Ast.mk_query ~projection:[ "x"; "v" ] ~filters:[ f ] [ pat "x" a "v" ])
  in
  let star_join =
    let* a1 = str_attr and* a2 = num_attr and* f = num_filter "w" and* distinct = bool in
    return
      (Ast.mk_query ~distinct ~projection:[ "v"; "w" ] ~filters:[ f ]
         [ pat "x" a1 "v"; pat "x" a2 "w" ])
  in
  let var_attr =
    let* topic = oneofl [ "databases"; "networks"; "ir"; "systems" ] in
    return
      (Ast.mk_query ~projection:[ "x"; "p" ]
         [ Ast.mk_pattern (var "x") (var "p") (Ast.TConst (Value.S topic)) ])
  in
  let skyline =
    return
      (Ast.mk_query ~projection:[ "a"; "c" ]
         ~order:(Ast.Skyline [ ("a", Ast.Min); ("c", Ast.Max) ])
         [ pat "x" "age" "a"; pat "x" "num_of_pubs" "c" ])
  in
  let union_shape =
    let* t1 = oneofl [ "databases"; "networks" ] and* t2 = oneofl [ "ir"; "systems" ] in
    return
      (Ast.mk_query ~distinct:true ~projection:[ "x" ]
         ~filters:[ Ast.ECmp (Ast.Eq, Ast.EVar "t", Ast.EConst (Value.S t1)) ]
         ~union_branches:
           [
             ( [ pat "x" "classified_in" "u" ],
               [ Ast.ECmp (Ast.Eq, Ast.EVar "u", Ast.EConst (Value.S t2)) ] );
           ]
         [ pat "x" "interested_in" "t" ])
  in
  let contains_shape =
    let* pat_s = oneofl [ "base"; "data"; "net"; "sys"; "ern" ] in
    return
      (Ast.mk_query ~projection:[ "x"; "v" ]
         ~filters:[ Ast.EContains (Ast.EVar "v", Ast.EConst (Value.S pat_s)) ]
         [ pat "x" "interested_in" "v" ])
  in
  oneof [ single; star_join; var_attr; skyline; union_shape; contains_shape ]

let prop_random_queries_match_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name:"random queries = reference evaluator"
       ~print:(fun q -> Format.asprintf "%a" Ast.pp_query q)
       gen_random_query
       (fun q ->
         let store, ds = Lazy.force shared_store in
         let expected = fingerprints (ref_eval ds.Publications.triples q) in
         let src = Format.asprintf "%a" Ast.pp_query q in
         match Unistore.query store src with
         | Error e -> QCheck2.Test.fail_reportf "query error: %s" e
         | Ok r ->
           if not r.Engine.complete then QCheck2.Test.fail_reportf "incomplete";
           let got = fingerprints r.Engine.rows in
           if got <> expected then
             QCheck2.Test.fail_reportf "rows differ: got %d, expected %d" (List.length got)
               (List.length expected)
           else true))

let () =
  Alcotest.run "unistore_core"
    [
      ( "queries",
        [
          Alcotest.test_case "equality selection" `Quick test_simple_selection;
          Alcotest.test_case "range selection" `Quick test_range_query;
          Alcotest.test_case "multi-pattern join" `Quick test_join_query;
          Alcotest.test_case "variable attribute" `Quick test_var_attr_query;
          Alcotest.test_case "order/limit/distinct" `Quick test_order_limit_distinct;
          Alcotest.test_case "paper's skyline query" `Quick test_paper_skyline_query;
          Alcotest.test_case "similarity query" `Quick test_similarity_query;
          Alcotest.test_case "substring query" `Quick test_substring_query;
          Alcotest.test_case "union query" `Quick test_union_query;
          Alcotest.test_case "top-n traversal query" `Quick test_topn_traversal_query;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "centralized = mutant" `Quick test_strategies_agree;
          Alcotest.test_case "chord substrate" `Quick test_chord_substrate_agrees;
          Alcotest.test_case "skyline pushdown agrees" `Quick test_skyline_pushdown_agrees;
          Alcotest.test_case "rank paths agree across overlays" `Quick
            test_rank_paths_agree_across_overlays;
        ] );
      ( "features",
        [
          Alcotest.test_case "mapping expansion" `Quick test_mapping_expansion;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "parse errors propagate" `Quick test_parse_error_propagates;
          Alcotest.test_case "failures reported honestly" `Quick test_failures_reported;
          Alcotest.test_case "table rendering" `Quick test_pp_table_renders;
          Alcotest.test_case "planetlab latency" `Quick test_planetlab_latency_config;
          Alcotest.test_case "query tracing" `Quick test_query_tracing;
          Alcotest.test_case "distributed stats collection" `Quick test_distributed_stats_collection;
          Alcotest.test_case "delete/update through queries" `Quick
            test_delete_and_update_through_queries;
          prop_random_queries_match_reference;
        ] );
    ]
