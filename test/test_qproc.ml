(* Tests for the query processor (unistore_qproc): bindings, ranking,
   cost model and optimizer decisions. *)

module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple
module Ast = Unistore_vql.Ast
module Parser = Unistore_vql.Parser
module Binding = Unistore_qproc.Binding
module Ranking = Unistore_qproc.Ranking
module Qstats = Unistore_qproc.Qstats
module Cost = Unistore_qproc.Cost
module Optimizer = Unistore_qproc.Optimizer
module Physical = Unistore_qproc.Physical

let check = Alcotest.check

let b_of_list l =
  List.fold_left
    (fun b (v, x) -> match Binding.bind b v x with Some b -> b | None -> Alcotest.fail "bind")
    Binding.empty l

(* ------------------------------------------------------------------ *)
(* Binding *)

let test_binding_bind_consistency () =
  let b = b_of_list [ ("x", Value.I 1) ] in
  (match Binding.bind b "x" (Value.I 1) with
  | Some _ -> ()
  | None -> Alcotest.fail "same value rebind ok");
  match Binding.bind b "x" (Value.I 2) with
  | None -> ()
  | Some _ -> Alcotest.fail "conflicting rebind must fail"

let test_binding_match_triple () =
  let p = Parser.parse_exn "SELECT ?a WHERE { (?a,'name',?n) }" in
  let pattern = List.hd p.Ast.patterns in
  let tr = Triple.make ~oid:"a1" ~attr:"name" (Value.S "alice") in
  (match Binding.match_triple pattern tr with
  | Some b ->
    check Alcotest.(option string) "oid bound" (Some "a1")
      (Option.bind (Binding.find b "a") Value.as_string);
    check Alcotest.(option string) "name bound" (Some "alice")
      (Option.bind (Binding.find b "n") Value.as_string)
  | None -> Alcotest.fail "should match");
  let wrong = Triple.make ~oid:"a1" ~attr:"age" (Value.I 3) in
  match Binding.match_triple pattern wrong with
  | None -> ()
  | Some _ -> Alcotest.fail "attr mismatch must fail"

let test_binding_match_repeated_var () =
  (* (?x,'eq',?x) binds subj and obj to the same variable. *)
  let q = Parser.parse_exn "SELECT ?x WHERE { (?x,'eq',?x) }" in
  let pattern = List.hd q.Ast.patterns in
  let self = Triple.make ~oid:"v" ~attr:"eq" (Value.S "v") in
  let other = Triple.make ~oid:"v" ~attr:"eq" (Value.S "w") in
  Alcotest.(check bool) "self match" true (Option.is_some (Binding.match_triple pattern self));
  Alcotest.(check bool) "non-self rejected" false (Option.is_some (Binding.match_triple pattern other))

let test_binding_compatible () =
  let a = b_of_list [ ("x", Value.I 1); ("y", Value.I 2) ] in
  let b = b_of_list [ ("y", Value.I 2); ("z", Value.I 3) ] in
  let c = b_of_list [ ("y", Value.I 9) ] in
  (match Binding.compatible a b with
  | Some m -> check Alcotest.int "merged vars" 3 (List.length (Binding.vars m))
  | None -> Alcotest.fail "compatible should merge");
  match Binding.compatible a c with
  | None -> ()
  | Some _ -> Alcotest.fail "incompatible must fail"

let test_binding_join_key_project () =
  let a = b_of_list [ ("x", Value.I 1); ("y", Value.S "s") ] in
  Alcotest.(check bool) "join key exists" true (Option.is_some (Binding.join_key [ "x"; "y" ] a));
  Alcotest.(check bool) "missing var" true (Option.is_none (Binding.join_key [ "z" ] a));
  let p = Binding.project [ "x" ] a in
  check Alcotest.(list string) "projected" [ "x" ] (Binding.vars p)

let test_binding_fingerprint () =
  let a = b_of_list [ ("x", Value.I 1) ] in
  let b = b_of_list [ ("x", Value.I 1) ] in
  let c = b_of_list [ ("x", Value.I 2) ] in
  check Alcotest.string "equal fp" (Binding.fingerprint a) (Binding.fingerprint b);
  Alcotest.(check bool) "diff fp" false
    (String.equal (Binding.fingerprint a) (Binding.fingerprint c))

(* ------------------------------------------------------------------ *)
(* Ranking *)

let rows_of specs =
  List.map (fun (age, cnt) -> b_of_list [ ("age", Value.I age); ("cnt", Value.I cnt) ]) specs

let ages rows = List.map (fun b -> Option.get (Option.bind (Binding.find b "age") Value.as_int)) rows

let test_order_by () =
  let rows = rows_of [ (30, 5); (25, 2); (40, 9) ] in
  check Alcotest.(list int) "asc" [ 25; 30; 40 ] (ages (Ranking.order_by [ ("age", Ast.Asc) ] rows));
  check Alcotest.(list int) "desc" [ 40; 30; 25 ]
    (ages (Ranking.order_by [ ("age", Ast.Desc) ] rows))

let test_order_by_secondary () =
  let rows = rows_of [ (30, 5); (30, 2); (25, 9) ] in
  let sorted = Ranking.order_by [ ("age", Ast.Asc); ("cnt", Ast.Desc) ] rows in
  let cnts = List.map (fun b -> Option.get (Option.bind (Binding.find b "cnt") Value.as_int)) sorted in
  check Alcotest.(list int) "secondary desc" [ 9; 5; 2 ] cnts

let test_top_n () =
  let rows = rows_of [ (30, 5); (25, 2); (40, 9); (28, 1) ] in
  check Alcotest.(list int) "top 2 youngest" [ 25; 28 ]
    (ages (Ranking.top_n 2 [ ("age", Ast.Asc) ] rows))

let goals = [ ("age", Ast.Min); ("cnt", Ast.Max) ]

let test_dominates () =
  let a = b_of_list [ ("age", Value.I 25); ("cnt", Value.I 9) ] in
  let b = b_of_list [ ("age", Value.I 30); ("cnt", Value.I 5) ] in
  Alcotest.(check bool) "a dominates b" true (Ranking.dominates goals a b);
  Alcotest.(check bool) "b not dominates a" false (Ranking.dominates goals b a);
  Alcotest.(check bool) "no self domination" false (Ranking.dominates goals a a)

let test_skyline_pareto () =
  (* Young+few-pubs and old+many-pubs are both on the skyline; dominated
     middle points are not. *)
  let rows = rows_of [ (25, 2); (30, 5); (40, 9); (35, 4); (28, 5); (50, 9) ] in
  let sky = Ranking.skyline goals rows in
  let pairs =
    List.map
      (fun b ->
        ( Option.get (Option.bind (Binding.find b "age") Value.as_int),
          Option.get (Option.bind (Binding.find b "cnt") Value.as_int) ))
      sky
    |> List.sort compare
  in
  check Alcotest.(list (pair int int)) "pareto set" [ (25, 2); (28, 5); (40, 9) ] pairs

let test_skyline_matches_bruteforce () =
  (* Property: BNL skyline = brute-force filter. *)
  let rng = Unistore_util.Rng.create 77 in
  for _ = 1 to 20 do
    let rows =
      List.init 40 (fun _ ->
          b_of_list
            [
              ("age", Value.I (Unistore_util.Rng.int rng 20));
              ("cnt", Value.I (Unistore_util.Rng.int rng 20));
            ])
    in
    let sky = Ranking.skyline goals rows |> List.map Binding.fingerprint |> List.sort compare in
    let brute =
      List.filter (fun r -> not (List.exists (fun o -> Ranking.dominates goals o r) rows)) rows
      |> List.map Binding.fingerprint |> List.sort_uniq compare
    in
    (* BNL keeps one representative per duplicate fingerprint group; use
       set comparison. *)
    check Alcotest.(list string) "skyline = brute force" brute (List.sort_uniq compare sky)
  done

let test_skyline_single_dim () =
  let rows = rows_of [ (30, 1); (25, 1); (40, 1) ] in
  let sky = Ranking.skyline [ ("age", Ast.Min) ] rows in
  check Alcotest.(list int) "min only" [ 25 ] (ages sky)

let test_skyline_matches_bnl () =
  (* The presorted-window skyline must agree with the reference BNL
     exactly — same rows, same order — including rows with a missing
     goal dimension (which never dominate nor get dominated). *)
  let rng = Unistore_util.Rng.create 91 in
  for _ = 1 to 20 do
    let rows =
      List.init 60 (fun i ->
          if i mod 7 = 3 then b_of_list [ ("age", Value.I (Unistore_util.Rng.int rng 15)) ]
          else
            b_of_list
              [
                ("age", Value.I (Unistore_util.Rng.int rng 15));
                ("cnt", Value.I (Unistore_util.Rng.int rng 15));
              ])
    in
    let opt = Ranking.skyline goals rows |> List.map Binding.fingerprint in
    let reference = Ranking.skyline_bnl goals rows |> List.map Binding.fingerprint in
    check Alcotest.(list string) "presorted skyline = reference BNL" reference opt
  done

let test_top_n_matches_sort () =
  (* The bounded-heap top-N must equal a stable full sort truncated to
     n, with heavy ties so stability is actually exercised. *)
  let rng = Unistore_util.Rng.create 17 in
  for _ = 1 to 20 do
    let n = Unistore_util.Rng.int rng 12 in
    let rows =
      List.init 50 (fun _ ->
          b_of_list
            [
              ("age", Value.I (Unistore_util.Rng.int rng 6));
              ("cnt", Value.I (Unistore_util.Rng.int rng 6));
            ])
    in
    let keys = [ ("age", Ast.Asc); ("cnt", Ast.Desc) ] in
    let expect =
      List.filteri (fun i _ -> i < n) (Ranking.order_by keys rows)
      |> List.map Binding.fingerprint
    in
    let got = Ranking.top_n n keys rows |> List.map Binding.fingerprint in
    check Alcotest.(list string) "heap top-n = sort then truncate" expect got
  done

(* ------------------------------------------------------------------ *)
(* Cost model + optimizer (synthetic stats) *)

let synthetic_stats =
  (* 1000 authors-ish triples: name (distinct), age (45 distinct), ... *)
  let mk count distinct lo hi string_valued =
    { Qstats.count; distinct; lo; hi; string_valued }
  in
  {
    Qstats.total_triples = 3000;
    distinct_oids = 500;
    attrs =
      [
        ("age", mk 500 45 (Some (Value.I 24)) (Some (Value.I 68)) false);
        ("name", mk 500 495 (Some (Value.S "Aaron")) (Some (Value.S "Zoe")) true);
        ("num_of_pubs", mk 500 30 (Some (Value.I 1)) (Some (Value.I 40)) false);
        ("title", mk 1500 1400 None None true);
      ];
  }

let env =
  {
    Cost.peers = 256;
    depth = 8;
    replication = 2;
    expected_latency = 50.0;
    batched_probes = false;
    topn_budget = true;
  }

let test_cost_lookup_cheaper_than_scan () =
  let lookup = Cost.estimate_access env synthetic_stats (Cost.AAttrValue ("name", Value.S "Bob")) in
  let scan = Cost.estimate_access env synthetic_stats (Cost.AAttrAll "name") in
  let flood = Cost.estimate_access env synthetic_stats Cost.ABroadcast in
  Alcotest.(check bool) "lookup < scan" true (lookup.Cost.messages < scan.Cost.messages);
  Alcotest.(check bool) "scan < flood" true (scan.Cost.messages < flood.Cost.messages)

let test_cost_range_scales_with_selectivity () =
  let narrow =
    Cost.estimate_access env synthetic_stats
      (Cost.AAttrRange ("age", Some (Value.I 30), Some (Value.I 31)))
  in
  let wide =
    Cost.estimate_access env synthetic_stats
      (Cost.AAttrRange ("age", Some (Value.I 24), Some (Value.I 68)))
  in
  Alcotest.(check bool) "narrow cheaper" true (narrow.Cost.messages <= wide.Cost.messages);
  Alcotest.(check bool) "narrow fewer rows" true (narrow.Cost.cardinality < wide.Cost.cardinality)

let test_cost_logarithmic_in_peers () =
  let small = { env with Cost.peers = 64; depth = 6 } in
  let large = { env with Cost.peers = 4096; depth = 12 } in
  let m n = (Cost.estimate_access n synthetic_stats (Cost.AOid "a1")).Cost.messages in
  Alcotest.(check bool) "64x peers ~ 2x messages" true (m large /. m small < 3.0)

let cmap_of src =
  let q = Parser.parse_exn src in
  (Unistore_vql.Algebra.var_constraints q.Ast.filters, q)

let test_optimizer_picks_av_lookup () =
  let _, q = cmap_of "SELECT ?a WHERE { (?a,'name',?n) FILTER ?n = 'Bob' }" in
  let plan = Optimizer.plan env synthetic_stats ~qgrams:true q in
  match (List.hd plan.Physical.steps).Physical.access with
  | Cost.AAttrValue ("name", Value.S "Bob") -> ()
  | a -> Alcotest.failf "expected av-lookup, got %a" Cost.pp_access a

let test_optimizer_picks_range () =
  let _, q = cmap_of "SELECT ?a WHERE { (?a,'age',?v) FILTER ?v >= 30 AND ?v < 40 }" in
  let plan = Optimizer.plan env synthetic_stats ~qgrams:true q in
  match (List.hd plan.Physical.steps).Physical.access with
  | Cost.AAttrRange ("age", Some (Value.I 30), Some (Value.I 40)) -> ()
  | a -> Alcotest.failf "expected range, got %a" Cost.pp_access a

let test_optimizer_picks_qgram_sim () =
  let _, q = cmap_of "SELECT ?a WHERE { (?a,'title',?t) FILTER edist(?t,'similarity search')<2 }" in
  let plan = Optimizer.plan env synthetic_stats ~qgrams:true q in
  (match (List.hd plan.Physical.steps).Physical.access with
  | Cost.ASim (Some "title", "similarity search", 1) -> ()
  | a -> Alcotest.failf "expected qgram sim, got %a" Cost.pp_access a);
  (* With the q-gram index disabled, it must not be chosen. *)
  let plan2 = Optimizer.plan env synthetic_stats ~qgrams:false q in
  match (List.hd plan2.Physical.steps).Physical.access with
  | Cost.ASim _ -> Alcotest.fail "sim access chosen without index"
  | _ -> ()

let test_optimizer_picks_substring () =
  let _, q = cmap_of "SELECT ?a WHERE { (?a,'title',?t) FILTER contains(?t,'skyline') }" in
  let plan = Optimizer.plan env synthetic_stats ~qgrams:true q in
  (match (List.hd plan.Physical.steps).Physical.access with
  | Cost.ASubstring (Some "title", "skyline") -> ()
  | a -> Alcotest.failf "expected substring access, got %a" Cost.pp_access a);
  (* Without the q-gram index or with a too-short pattern: no substring
     access. *)
  let plan2 = Optimizer.plan env synthetic_stats ~qgrams:false q in
  (match (List.hd plan2.Physical.steps).Physical.access with
  | Cost.ASubstring _ -> Alcotest.fail "substring access without index"
  | _ -> ());
  let _, q3 = cmap_of "SELECT ?a WHERE { (?a,'title',?t) FILTER contains(?t,'ab') }" in
  let plan3 = Optimizer.plan env synthetic_stats ~qgrams:true q3 in
  match (List.hd plan3.Physical.steps).Physical.access with
  | Cost.ASubstring _ -> Alcotest.fail "substring access for short pattern"
  | _ -> ()

let test_optimizer_picks_topn_traversal () =
  let _, q = cmap_of "SELECT ?v WHERE { (?a,'age',?v) } ORDER BY ?v ASC LIMIT 3" in
  let plan = Optimizer.plan env synthetic_stats ~qgrams:true q in
  (match (List.hd plan.Physical.steps).Physical.access with
  | Cost.ATopN ("age", 3) -> ()
  | a -> Alcotest.failf "expected topn traversal, got %a" Cost.pp_access a);
  (* Not sound with filters, descending order, or joins. *)
  let unsound =
    [
      "SELECT ?v WHERE { (?a,'age',?v) FILTER ?v != 30 } ORDER BY ?v ASC LIMIT 3";
      "SELECT ?v WHERE { (?a,'age',?v) } ORDER BY ?v DESC LIMIT 3";
      "SELECT ?v WHERE { (?a,'age',?v) (?a,'name',?n) } ORDER BY ?v ASC LIMIT 3";
    ]
  in
  List.iter
    (fun src ->
      let _, q = cmap_of src in
      let plan = Optimizer.plan env synthetic_stats ~qgrams:true q in
      List.iter
        (fun (s : Physical.step) ->
          match s.Physical.access with
          | Cost.ATopN _ -> Alcotest.failf "unsound topn for %s" src
          | _ -> ())
        plan.Physical.steps)
    unsound

let test_optimizer_starts_with_most_selective () =
  let _, q =
    cmap_of
      "SELECT ?n WHERE { (?a,'name',?n) (?a,'age',?v) (?a,'num_of_pubs',?c) FILTER ?n = 'Bob' }"
  in
  let plan = Optimizer.plan env synthetic_stats ~qgrams:true q in
  (match (List.hd plan.Physical.steps).Physical.access with
  | Cost.AAttrValue ("name", _) -> ()
  | a -> Alcotest.failf "expected to start from name=Bob, got %a" Cost.pp_access a);
  (* Later steps should be bind-joins (selective left side). *)
  let later = List.tl plan.Physical.steps in
  Alcotest.(check bool) "bind-joins follow" true
    (List.for_all (fun (s : Physical.step) -> s.Physical.bindjoin) later)

let test_optimizer_attaches_filters () =
  let _, q =
    cmap_of "SELECT ?n WHERE { (?a,'name',?n) (?a,'age',?v) FILTER ?v > 30 FILTER ?n != 'x' }"
  in
  let plan = Optimizer.plan env synthetic_stats ~qgrams:true q in
  let total_residuals =
    List.fold_left (fun acc (s : Physical.step) -> acc + List.length s.Physical.residual) 0
      plan.Physical.steps
  in
  check Alcotest.int "both filters attached to steps" 2 total_residuals;
  check Alcotest.int "no post filters" 0 (List.length plan.Physical.post_filters)

let test_optimizer_no_constraint_scans_attr () =
  let _, q = cmap_of "SELECT ?v WHERE { (?a,'age',?v) }" in
  let plan = Optimizer.plan env synthetic_stats ~qgrams:true q in
  match (List.hd plan.Physical.steps).Physical.access with
  | Cost.AAttrAll "age" -> ()
  | a -> Alcotest.failf "expected attr scan, got %a" Cost.pp_access a

let test_optimizer_value_lookup_for_var_attr () =
  let _, q = cmap_of "SELECT ?attr WHERE { (?a,?attr,'ICDE') }" in
  let plan = Optimizer.plan env synthetic_stats ~qgrams:true q in
  match (List.hd plan.Physical.steps).Physical.access with
  | Cost.AValue (Value.S "ICDE") -> ()
  | a -> Alcotest.failf "expected v-lookup, got %a" Cost.pp_access a

let test_access_candidates_sorted () =
  let cmap, q = cmap_of "SELECT ?v WHERE { (?a,'age',?v) FILTER ?v >= 30 }" in
  let cands = Optimizer.access_candidates env synthetic_stats ~qgrams:true cmap (List.hd q.Ast.patterns) in
  Alcotest.(check bool) "at least 2 candidates" true (List.length cands >= 2);
  let objectives = List.map (fun (_, e) -> Cost.objective e) cands in
  let sorted = List.sort Float.compare objectives in
  check Alcotest.(list (float 1e-9)) "sorted by objective" sorted objectives

(* ------------------------------------------------------------------ *)
(* Postprocess (exported for UNION combination) *)

module Exec = Unistore_qproc.Exec

let mk_post ?(order = None) ?(projection = None) ?(distinct = false) ?(limit = None) () =
  {
    Physical.steps = [];
    post_filters = [];
    order;
    projection;
    distinct;
    limit;
    expansions = [];
    total_est = { Cost.messages = 0.0; latency = 0.0; cardinality = 0.0 };
    branches = [];
  }

let test_postprocess_pipeline () =
  let rows = rows_of [ (30, 5); (25, 2); (40, 9); (25, 2); (28, 1) ] in
  (* order + limit = top-n *)
  let out =
    Exec.postprocess (mk_post ~order:(Some (Ast.OrderBy [ ("age", Ast.Asc) ])) ~limit:(Some 2) ()) rows
  in
  check Alcotest.(list int) "top2" [ 25; 25 ] (ages out);
  (* distinct after projection *)
  let out = Exec.postprocess (mk_post ~projection:(Some [ "age" ]) ~distinct:true ()) rows in
  check Alcotest.int "distinct ages" 4 (List.length out);
  (* skyline + limit *)
  let out =
    Exec.postprocess
      (mk_post ~order:(Some (Ast.Skyline [ ("age", Ast.Min); ("cnt", Ast.Max) ])) ~limit:(Some 1) ())
      rows
  in
  check Alcotest.int "skyline truncated" 1 (List.length out);
  (* no clauses = identity *)
  let out = Exec.postprocess (mk_post ()) rows in
  check Alcotest.int "identity" (List.length rows) (List.length out)

let () =
  Alcotest.run "unistore_qproc"
    [
      ( "binding",
        [
          Alcotest.test_case "bind consistency" `Quick test_binding_bind_consistency;
          Alcotest.test_case "match triple" `Quick test_binding_match_triple;
          Alcotest.test_case "repeated variable" `Quick test_binding_match_repeated_var;
          Alcotest.test_case "compatible merge" `Quick test_binding_compatible;
          Alcotest.test_case "join key / project" `Quick test_binding_join_key_project;
          Alcotest.test_case "fingerprint" `Quick test_binding_fingerprint;
        ] );
      ( "ranking",
        [
          Alcotest.test_case "order by" `Quick test_order_by;
          Alcotest.test_case "order by secondary" `Quick test_order_by_secondary;
          Alcotest.test_case "top-n" `Quick test_top_n;
          Alcotest.test_case "dominance" `Quick test_dominates;
          Alcotest.test_case "skyline pareto" `Quick test_skyline_pareto;
          Alcotest.test_case "skyline = brute force" `Quick test_skyline_matches_bruteforce;
          Alcotest.test_case "skyline single dim" `Quick test_skyline_single_dim;
          Alcotest.test_case "presorted skyline = reference bnl" `Quick test_skyline_matches_bnl;
          Alcotest.test_case "heap top-n = sort" `Quick test_top_n_matches_sort;
        ] );
      ( "cost",
        [
          Alcotest.test_case "lookup < scan < flood" `Quick test_cost_lookup_cheaper_than_scan;
          Alcotest.test_case "range selectivity" `Quick test_cost_range_scales_with_selectivity;
          Alcotest.test_case "logarithmic scaling" `Quick test_cost_logarithmic_in_peers;
        ] );
      ( "postprocess",
        [ Alcotest.test_case "pipeline combinations" `Quick test_postprocess_pipeline ] );
      ( "optimizer",
        [
          Alcotest.test_case "picks av-lookup" `Quick test_optimizer_picks_av_lookup;
          Alcotest.test_case "picks range" `Quick test_optimizer_picks_range;
          Alcotest.test_case "picks qgram sim" `Quick test_optimizer_picks_qgram_sim;
          Alcotest.test_case "picks substring" `Quick test_optimizer_picks_substring;
          Alcotest.test_case "picks topn traversal" `Quick test_optimizer_picks_topn_traversal;
          Alcotest.test_case "starts most selective" `Quick test_optimizer_starts_with_most_selective;
          Alcotest.test_case "attaches filters" `Quick test_optimizer_attaches_filters;
          Alcotest.test_case "attr scan fallback" `Quick test_optimizer_no_constraint_scans_attr;
          Alcotest.test_case "v-lookup for var attr" `Quick test_optimizer_value_lookup_for_var_attr;
          Alcotest.test_case "candidates sorted" `Quick test_access_candidates_sorted;
        ] );
    ]
