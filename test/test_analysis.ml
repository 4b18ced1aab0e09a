(* Tests for the static-analysis layer (unistore_analysis): seeded-defect
   fixtures for each analyzer — the semantic checker must flag unbound
   variables, type clashes, contradictory ranges, Cartesian products and
   bad LIMITs; the trace linter must flag hand-corrupted traces; the
   overlay auditor must flag hand-mutated overlays — and all three must
   stay silent on clean inputs (including the paper's demo query). *)

open Unistore_util
module Sim = Unistore_sim.Sim
module Latency = Unistore_sim.Latency
module Trace = Unistore_sim.Trace
module Store = Unistore_pgrid.Store
module Node = Unistore_pgrid.Node
module Config = Unistore_pgrid.Config
module Overlay = Unistore_pgrid.Overlay
module Build = Unistore_pgrid.Build
module Chord = Unistore_chord.Chord
module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple
module Metrics = Unistore_obs.Metrics
module D = Unistore_analysis.Diagnostic
module Catalog = Unistore_analysis.Catalog
module Semantic = Unistore_analysis.Semantic
module Tracelint = Unistore_analysis.Tracelint
module Audit = Unistore_analysis.Audit

open Test_support

let check = Alcotest.check

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let codes ds = List.map (fun (d : D.t) -> d.D.code) ds
let has code ds = List.exists (fun (d : D.t) -> String.equal d.D.code code) ds

let check_has what code ds =
  if not (has code ds) then
    Alcotest.failf "%s: expected a %S diagnostic, got [%s]" what code
      (String.concat "; " (codes ds))

let check_clean what ds =
  if ds <> [] then
    Alcotest.failf "%s: expected no diagnostics, got [%s]" what (String.concat "; " (codes ds))

(* ------------------------------------------------------------------ *)
(* Semantic analyzer *)

(* The schema of the paper's running example, as a catalog. *)
let catalog =
  Catalog.of_triples
    [
      Triple.make ~oid:"a1" ~attr:"name" (Value.S "alice");
      Triple.make ~oid:"a1" ~attr:"age" (Value.I 30);
      Triple.make ~oid:"a1" ~attr:"num_of_pubs" (Value.I 3);
      Triple.make ~oid:"a1" ~attr:"has_published" (Value.S "t1");
      Triple.make ~oid:"p1" ~attr:"title" (Value.S "t1");
      Triple.make ~oid:"p1" ~attr:"published_in" (Value.S "ICDE 2007");
      Triple.make ~oid:"c1" ~attr:"confname" (Value.S "ICDE 2007");
      Triple.make ~oid:"c1" ~attr:"series" (Value.S "ICDE");
    ]

let diags ?catalog src =
  match Semantic.analyze_string ?catalog src with
  | Ok (_, ds) -> ds
  | Error e -> Alcotest.failf "fixture failed to parse: %s" e

let test_sem_unbound () =
  let ds = diags "SELECT ?ghost WHERE { (?a,'name',?v) }" in
  check_has "unbound projection" "unbound-var" ds;
  let d = List.find (fun (d : D.t) -> d.D.code = "unbound-var") ds in
  Alcotest.(check bool) "positioned" true (d.D.span.Unistore_vql.Loc.start >= 0)

(* A UNION branch's filter keeps its source span: the finding points at
   the filter inside the branch, as it does in the main group. *)
let test_sem_unbound_in_union_branch () =
  let src = "SELECT ?x WHERE { (?x,'name',?v) } UNION { (?x,'age',?w) FILTER ?v > 1 }" in
  let d =
    match List.find_opt (fun (d : D.t) -> d.D.code = "unbound-var") (diags src) with
    | Some d -> d
    | None -> Alcotest.fail "unbound filter variable in a UNION branch not reported"
  in
  let filter_at =
    let needle = "FILTER ?v > 1" in
    let rec find i = if String.sub src i (String.length needle) = needle then i else find (i + 1) in
    find 0
  in
  check Alcotest.int "span starts at the branch's filter" filter_at d.D.span.Unistore_vql.Loc.start

(* An empty UNION branch's error points at the branch's braces, as the
   other findings in a branch do. *)
let test_empty_union_branch_positioned () =
  let src = "SELECT ?x WHERE { (?x,'name',?v) } UNION { }" in
  let d =
    match List.find_opt (fun (d : D.t) -> d.D.code = "no-patterns") (diags src) with
    | Some d -> d
    | None -> Alcotest.fail "empty UNION branch not reported"
  in
  check Alcotest.int "span starts at the branch's brace" (String.rindex src '{')
    d.D.span.Unistore_vql.Loc.start

let test_sem_unused () =
  check_has "bound once, never used" "unused-var"
    (diags "SELECT ?v WHERE { (?a,'name',?v) (?a,'age',?w) }")

let test_sem_type_clash () =
  (* 'age' is numeric in the catalog; edist forces string. *)
  check_has "numeric attr under edist" "type-clash"
    (diags ~catalog "SELECT ?x WHERE { (?a,'age',?x) FILTER edist(?x,'ab') < 2 }")

let test_sem_unknown_attr () =
  check_has "attribute absent from catalog" "unknown-attr"
    (diags ~catalog "SELECT ?x WHERE { (?a,'zzz',?x) }")

let test_sem_unsat_range () =
  check_has "contradictory bounds" "unsat-filter"
    (diags "SELECT ?v WHERE { (?a,'age',?v) FILTER ?v > 10 AND ?v < 5 }")

let test_sem_unsat_edist () =
  check_has "impossible edit distance" "unsat-filter"
    (diags "SELECT ?v WHERE { (?a,'series',?v) FILTER edist(?v,'ICDE') < 0 }")

let test_sem_cartesian () =
  check_has "disconnected join graph" "cartesian-product"
    (diags "SELECT ?x,?y WHERE { (?a,'name',?x) (?b,'age',?y) }");
  Alcotest.(check bool) "connected graph accepted" false
    (has "cartesian-product" (diags "SELECT ?x,?y WHERE { (?a,'name',?x) (?a,'age',?y) }"))

let test_sem_bad_limit () =
  (* analyze_string skips the parser's own validation, so the bad top-N
     parameter reaches the analyzer. *)
  check_has "non-positive LIMIT" "bad-limit" (diags "SELECT ?v WHERE { (?a,'x',?v) } LIMIT 0")

(* The paper's demo query (section 2): skyline over age/productivity
   with a similarity filter. Must be completely clean. *)
let paper_query =
  "SELECT ?name,?age,?cnt\n\
   WHERE {(?a,'name',?name) (?a,'age',?age)\n\
   (?a,'num_of_pubs',?cnt)\n\
   (?a,'has_published',?title) (?p,'title',?title)\n\
   (?p,'published_in',?conf) (?c,'confname',?conf)\n\
   (?c,'series',?sr) FILTER edist(?sr,'ICDE')<3\n\
   }\n\
   ORDER BY SKYLINE OF ?age MIN, ?cnt MAX"

let test_sem_paper_query_clean () = check_clean "paper demo query" (diags ~catalog paper_query)

(* ------------------------------------------------------------------ *)
(* Engine gate: error-severity diagnostics refuse the plan *)

let mk_deployment () =
  let store = Unistore.create { Unistore.default_config with peers = 8 } in
  ignore
    (Unistore.insert_tuple store ~oid:"a1"
       [ ("name", Value.S "alice"); ("age", Value.I 30) ]);
  ignore
    (Unistore.insert_tuple store ~oid:"a2" [ ("name", Value.S "bob"); ("age", Value.I 40) ]);
  Unistore.set_stats_of_triples store
    [ Triple.make ~oid:"a1" ~attr:"name" (Value.S "alice");
      Triple.make ~oid:"a1" ~attr:"age" (Value.I 30) ];
  Unistore.settle store;
  store

let test_engine_refuses_unsat () =
  let store = mk_deployment () in
  (match Unistore.query store "SELECT ?v WHERE { (?a,'age',?v) FILTER ?v > 100 AND ?v < 50 }" with
  | Ok _ -> Alcotest.fail "engine executed an unsatisfiable query"
  | Error e ->
    Alcotest.(check bool) "mentions the diagnostic code" true (contains_sub e "unsat-filter"));
  match Unistore.query store "SELECT ?n WHERE { (?a,'name',?n) }" with
  | Ok report -> check Alcotest.int "clean query still runs" 2 (List.length report.Unistore.Report.rows)
  | Error e -> Alcotest.failf "clean query refused: %s" e

let test_facade_check () =
  let store = mk_deployment () in
  (match Unistore.check store "SELECT ?v WHERE { (?a,'age',?v) FILTER ?v > 100 AND ?v < 50 }" with
  | Ok ds -> check_has "facade check" "unsat-filter" ds
  | Error e -> Alcotest.failf "parse error: %s" e);
  match Unistore.check store "SELECT" with
  | Ok _ -> Alcotest.fail "truncated query parsed"
  | Error e ->
    Alcotest.(check bool) "positioned parse error" true (contains_sub e "line")

(* [check] types a query against the statistics [query] plans it with:
   those gossiped to the origin, ahead of the facade-held ones (empty
   here: no oracle statistics were set). *)
let test_facade_check_gossiped_stats () =
  let ds = Unistore_workload.Publications.(generate (Rng.create 43) default_params) in
  let store =
    Unistore.create
      ~sample_keys:(Unistore_workload.Publications.sample_keys ds)
      { Unistore.default_config with peers = 32 }
  in
  ignore (Unistore.load store ds.Unistore_workload.Publications.tuples);
  Unistore.settle store;
  for _ = 1 to 4 do
    Unistore.gossip_stats_round store
  done;
  let src = "SELECT ?n WHERE { (?a,'age',?n) FILTER ?n = 'abc' }" in
  (match Unistore.query store src with
  | Ok _ -> Alcotest.fail "query ran a numeric attribute against a string"
  | Error e -> Alcotest.(check bool) "query refuses with type-clash" true (contains_sub e "type-clash"));
  match Unistore.check store src with
  | Ok ds -> check_has "check agrees with query" "type-clash" ds
  | Error e -> Alcotest.failf "parse error: %s" e

(* UNION branches bind their variables independently: a variable that
   is a string in one branch and a number in another is no clash, and
   the query runs. A clash inside one branch is still an error. *)
let test_union_branch_types () =
  let src = "SELECT ?v WHERE { (?x,'name',?v) } UNION { (?x,'age',?v) }" in
  Alcotest.(check bool) "no clash across branches" false (has "type-clash" (diags ~catalog src));
  let store = mk_deployment () in
  (match Unistore.check store src with
  | Ok ds -> Alcotest.(check bool) "facade check finds no error" false (D.has_errors ds)
  | Error e -> Alcotest.failf "parse error: %s" e);
  (match Unistore.query store src with
  | Ok report ->
    check Alcotest.int "both branches answer" 4 (List.length report.Unistore.Report.rows)
  | Error e -> Alcotest.failf "union query refused: %s" e);
  check_has "clash within one branch" "type-clash"
    (diags ~catalog
       "SELECT ?v WHERE { (?x,'name',?v) } UNION { (?x,'age',?v) FILTER edist(?v,'ab') < 2 }")

(* ------------------------------------------------------------------ *)
(* Trace linter *)

let ev ?(outcome = Trace.Delivered) tr ~corr ~time ~kind ~src ~dst () =
  let e = Trace.record tr ~corr ~time ~src ~dst ~kind ~bytes:32 () in
  e.Trace.outcome <- outcome

let lint ?allowed_revisits ?metrics tr =
  Tracelint.lint ?allowed_revisits ?metrics ~rules:Tracelint.pgrid_rules tr

let test_lint_clean () =
  let tr = Trace.create () in
  ev tr ~corr:1 ~time:1.0 ~kind:"lookup" ~src:0 ~dst:1 ();
  ev tr ~corr:1 ~time:2.0 ~kind:"found" ~src:1 ~dst:0 ();
  ev tr ~corr:2 ~time:3.0 ~kind:"insert" ~src:0 ~dst:2 ();
  ev tr ~corr:2 ~time:4.0 ~kind:"found" ~src:2 ~dst:0 ();
  (* A batch splits by region, and each region answers once. *)
  ev tr ~corr:3 ~time:5.0 ~kind:"insert-batch" ~src:0 ~dst:1 ();
  ev tr ~corr:3 ~time:6.0 ~kind:"multi-found" ~src:1 ~dst:0 ();
  ev tr ~corr:3 ~time:6.5 ~kind:"multi-found" ~src:3 ~dst:0 ();
  check_clean "well-formed trace" (lint tr)

let test_lint_orphan_reply () =
  let tr = Trace.create () in
  ev tr ~corr:9 ~time:1.0 ~kind:"found" ~src:1 ~dst:0 ();
  check_has "reply without request" "orphan-reply" (lint tr);
  let tr = Trace.create () in
  ev tr ~corr:8 ~time:1.0 ~kind:"multi-found" ~src:1 ~dst:0 ();
  check_has "batch reply without request" "orphan-reply" (lint tr)

let test_lint_multi_reply () =
  let tr = Trace.create () in
  ev tr ~corr:4 ~time:1.0 ~kind:"lookup" ~src:0 ~dst:1 ();
  ev tr ~corr:4 ~time:2.0 ~kind:"found" ~src:1 ~dst:0 ();
  ev tr ~corr:4 ~time:3.0 ~kind:"found" ~src:1 ~dst:0 ();
  check_has "two replies to a single-reply request" "multi-reply" (lint tr);
  (* Fan-out replies are legitimate for range queries. *)
  let tr2 = Trace.create () in
  ev tr2 ~corr:5 ~time:1.0 ~kind:"range" ~src:0 ~dst:1 ();
  ev tr2 ~corr:5 ~time:2.0 ~kind:"range-hit" ~src:1 ~dst:0 ();
  ev tr2 ~corr:5 ~time:3.0 ~kind:"range-hit" ~src:2 ~dst:0 ();
  check_clean "multi-reply rule for range" (lint tr2)

let test_lint_routing_loop () =
  let tr = Trace.create () in
  ev tr ~corr:7 ~time:1.0 ~kind:"lookup" ~src:0 ~dst:3 ();
  ev tr ~corr:7 ~time:2.0 ~kind:"lookup" ~src:5 ~dst:3 ();
  ev tr ~corr:7 ~time:3.0 ~kind:"found" ~src:3 ~dst:0 ();
  check_has "same request revisits a peer" "routing-loop" (lint tr);
  Alcotest.(check bool) "retries tolerated when allowed" false
    (has "routing-loop" (lint ~allowed_revisits:1 tr))

(* Fixture pair for attempts: a retry re-walks the route of the attempt
   it replaces, and the [fault.retry] marker before it says so. *)
let test_lint_retry_revisit () =
  (* Clean: the first attempt dies at a crashed peer, the request times
     out, and the retry passes the same router again. *)
  let tr = Trace.create () in
  ev tr ~corr:71 ~time:1.0 ~kind:"range" ~src:0 ~dst:63 ();
  ev tr ~corr:71 ~time:2.0 ~kind:"range" ~src:63 ~dst:48 ();
  ev tr ~outcome:Trace.To_dead ~corr:71 ~time:3.0 ~kind:"range" ~src:48 ~dst:53 ();
  Trace.mark tr ~corr:71 ~time:115.6 ~src:0 ~kind:"fault.retry" ();
  ev tr ~corr:71 ~time:115.6 ~kind:"range" ~src:0 ~dst:63 ();
  ev tr ~corr:71 ~time:117.0 ~kind:"range-hit" ~src:63 ~dst:0 ();
  check_clean "a retried request may revisit a peer" (lint tr);
  (* Defect: the same revisit inside the retry's own attempt. *)
  let tr2 = Trace.create () in
  ev tr2 ~corr:71 ~time:1.0 ~kind:"range" ~src:0 ~dst:63 ();
  Trace.mark tr2 ~corr:71 ~time:115.6 ~src:0 ~kind:"fault.retry" ();
  ev tr2 ~corr:71 ~time:115.6 ~kind:"range" ~src:0 ~dst:63 ();
  ev tr2 ~corr:71 ~time:116.0 ~kind:"range" ~src:63 ~dst:48 ();
  ev tr2 ~corr:71 ~time:117.0 ~kind:"range" ~src:48 ~dst:63 ();
  check_has "a revisit within one attempt is a loop" "routing-loop" (lint tr2);
  (* Another request's retry starts no attempt of this one. *)
  let tr3 = Trace.create () in
  ev tr3 ~corr:5 ~time:1.0 ~kind:"lookup" ~src:0 ~dst:3 ();
  Trace.mark tr3 ~corr:6 ~time:2.0 ~src:0 ~kind:"fault.retry" ();
  ev tr3 ~corr:5 ~time:3.0 ~kind:"lookup" ~src:4 ~dst:3 ();
  check_has "retry markers are per request" "routing-loop" (lint tr3)

let test_lint_clock_regression () =
  let tr = Trace.create () in
  ev tr ~corr:1 ~time:5.0 ~kind:"lookup" ~src:0 ~dst:1 ();
  ev tr ~corr:1 ~time:1.0 ~kind:"found" ~src:1 ~dst:0 ();
  check_has "time went backwards" "clock-regression" (lint tr)

let test_lint_conservation () =
  let tr = Trace.create () in
  ev tr ~corr:1 ~time:1.0 ~kind:"lookup" ~src:0 ~dst:1 ();
  ev tr ~corr:1 ~time:2.0 ~kind:"found" ~src:1 ~dst:0 ();
  let good = Metrics.create () in
  Metrics.incr good ~by:2 "net.sent";
  Metrics.incr good "net.sent.lookup";
  Metrics.incr good "net.sent.found";
  check_clean "counts agree" (lint ~metrics:good tr);
  let bad = Metrics.create () in
  Metrics.incr bad ~by:3 "net.sent";
  Metrics.incr bad ~by:2 "net.sent.lookup";
  Metrics.incr bad "net.sent.found";
  Metrics.incr bad "net.sent.insert";
  check_has "counts disagree" "conservation" (lint ~metrics:bad tr)

(* A trace kind the static protocol table does not know about means a
   message was added to the code without a table entry. *)
let test_lint_unknown_kind () =
  let tr = Trace.create () in
  ev tr ~corr:1 ~time:1.0 ~kind:"lookup" ~src:0 ~dst:1 ();
  ev tr ~corr:1 ~time:2.0 ~kind:"turbo-lookup" ~src:1 ~dst:0 ();
  check_has "kind missing from Protocol table" "unknown-kind" (lint tr);
  (* Fault markers are injection bookkeeping, not protocol messages. *)
  let tr2 = Trace.create () in
  ev tr2 ~corr:1 ~time:1.0 ~kind:"lookup" ~src:0 ~dst:1 ();
  ev tr2 ~corr:1 ~time:1.5 ~kind:"found" ~src:1 ~dst:0 ();
  ev tr2 ~corr:(-1) ~time:2.0 ~kind:"fault.crash" ~src:1 ~dst:1 ();
  Alcotest.(check bool) "fault markers exempt" false (has "unknown-kind" (lint tr2))

let test_lint_in_flight () =
  let tr = Trace.create () in
  ev tr ~outcome:Trace.In_flight ~corr:1 ~time:1.0 ~kind:"lookup" ~src:0 ~dst:1 ();
  check_has "unresolved event" "in-flight" (lint tr);
  Alcotest.(check bool) "only informational" false (D.has_errors (lint tr))

(* Fault markers are recorded outside Net.send, so they must not count
   against message-conservation — a traced deployment under fault
   injection would otherwise always "lose" the marker events. *)
let test_lint_conservation_skips_fault_marks () =
  let tr = Trace.create () in
  ev tr ~corr:1 ~time:1.0 ~kind:"lookup" ~src:0 ~dst:1 ();
  Trace.mark tr ~time:1.5 ~src:4 ~kind:"fault.crash" ();
  ev tr ~corr:1 ~time:2.0 ~kind:"found" ~src:1 ~dst:0 ();
  Trace.mark tr ~time:2.5 ~src:4 ~kind:"fault.revive" ();
  let good = Metrics.create () in
  Metrics.incr good ~by:2 "net.sent";
  Metrics.incr good "net.sent.lookup";
  Metrics.incr good "net.sent.found";
  check_clean "fault marks are not sends" (lint ~metrics:good tr)

(* Fixture pair for the crash-handling check: a request eaten by a
   crashed peer must be followed by a retry, a failover, or an explicit
   partial-result marker. *)
let test_lint_unhandled_crash () =
  (* Defect: the crash eats the request and nothing follows. *)
  let tr = Trace.create () in
  Trace.mark tr ~time:0.5 ~src:1 ~kind:"fault.crash" ();
  ev tr ~outcome:Trace.To_dead ~corr:7 ~time:1.0 ~kind:"lookup" ~src:0 ~dst:1 ();
  check_has "crash swallowed a request" "unhandled-crash" (lint tr);
  Alcotest.(check bool) "reported as an error" true (D.has_errors (lint tr));
  (* Clean: the same crash, but a retry reaches a living replica. *)
  let tr2 = Trace.create () in
  Trace.mark tr2 ~time:0.5 ~src:1 ~kind:"fault.crash" ();
  ev tr2 ~outcome:Trace.To_dead ~corr:7 ~time:1.0 ~kind:"lookup" ~src:0 ~dst:1 ();
  ev tr2 ~corr:7 ~time:2.0 ~kind:"lookup" ~src:0 ~dst:2 ();
  ev tr2 ~corr:7 ~time:3.0 ~kind:"found" ~src:2 ~dst:0 ();
  check_clean "retry absolves the crash" (lint tr2);
  (* Also clean: graceful degradation via an explicit partial marker. *)
  let tr3 = Trace.create () in
  Trace.mark tr3 ~time:0.5 ~src:1 ~kind:"fault.crash" ();
  ev tr3 ~outcome:Trace.To_dead ~corr:9 ~time:1.0 ~kind:"range" ~src:0 ~dst:1 ();
  Trace.mark tr3 ~corr:9 ~time:5.0 ~src:0 ~kind:"fault.partial" ();
  check_clean "partial marker absolves the crash" (lint tr3)

(* ------------------------------------------------------------------ *)
(* Overlay auditor *)

let build_pgrid ?(n = 16) () =
  let sim = Sim.create () in
  let rng = Rng.create 11 in
  let latency = Latency.create (Latency.Constant 1.0) ~n ~rng in
  let keys = random_words rng 100 in
  let ov =
    Build.oracle sim ~latency ~rng ~drop:0.0 ~config:Config.default ~n ~sample_keys:keys
      ~balanced:true ()
  in
  List.iteri
    (fun i k ->
      ignore
        (await (Overlay.sim ov) (fun ret ->
            Overlay.insert ov ~origin:(i mod n) ~key:k ~item_id:(Printf.sprintf "id%d" i) ~payload:k ~k:ret ())))
    keys;
  Sim.run_all sim;
  ov

let test_audit_pgrid_clean () = check_clean "freshly built overlay" (Audit.pgrid (build_pgrid ()))

let test_audit_pgrid_split_arity () =
  let ov = build_pgrid () in
  let nd = List.find (fun (nd : Node.t) -> Bitkey.length nd.Node.path > 0) (Overlay.nodes ov) in
  nd.Node.splits <- Array.sub nd.Node.splits 0 (Array.length nd.Node.splits - 1);
  nd.Node.region_cache <- None;
  check_has "truncated split boundaries" "split-arity" (Audit.pgrid ov)

let test_audit_pgrid_misplaced_item () =
  let ov = build_pgrid () in
  let nd = List.find (fun (nd : Node.t) -> Bitkey.length nd.Node.path > 0) (Overlay.nodes ov) in
  (* One of the key-space extremes must fall outside a non-root region. *)
  let bad_key = if Node.covers nd "" then "\xff\xff\xff\xff" else "" in
  assert (not (Node.covers nd bad_key));
  ignore (Store.put nd.Node.store { Store.key = bad_key; item_id = "intruder"; payload = "x"; version = 0 });
  check_has "item outside the peer's region" "misplaced-item" (Audit.pgrid ov)

let test_audit_pgrid_bad_ref () =
  let ov = build_pgrid () in
  let nd =
    List.find
      (fun (nd : Node.t) -> Array.length nd.Node.refs > 0 && nd.Node.refs.(0) <> [||])
      (Overlay.nodes ov)
  in
  (* A peer must never appear in its own complementary subtree. *)
  nd.Node.refs.(0) <- [| nd.Node.id |];
  check_has "self-reference at level 0" "bad-ref" (Audit.pgrid ov)

let test_audit_pgrid_replica_divergence () =
  let ov = build_pgrid () in
  let nd = List.find (fun (nd : Node.t) -> nd.Node.replicas <> []) (Overlay.nodes ov) in
  ignore
    (Store.put nd.Node.store
       { Store.key = "~local-only"; item_id = "drift"; payload = "x"; version = 0 });
  (* The extra item both diverges from the replica group and (depending
     on the region) may be misplaced; the divergence warning must be
     there either way. *)
  check_has "replica holds an extra item" "replica-divergence" (Audit.pgrid ov)

let mkchord ?(n = 16) () =
  let sim = Sim.create () in
  let rng = Rng.create 5 in
  let latency = Latency.create (Latency.Constant 1.0) ~n ~rng in
  Chord.create sim ~latency ~rng ~config:Chord.default_config ~n ()

let test_audit_chord_clean () = check_clean "freshly built ring" (Audit.chord (mkchord ()))

let test_audit_chord_dead_successors () =
  let c = mkchord () in
  let id = List.hd (Chord.peers c) in
  List.iter (Chord.kill c) (Chord.successors c id);
  let ds = Audit.chord c in
  check_has "alive peer with all successors dead" "dead-successors" ds;
  Alcotest.(check bool) "structure itself still sound" false (D.has_errors ds)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "unistore_analysis"
    [
      ( "semantic",
        [
          Alcotest.test_case "unbound variable" `Quick test_sem_unbound;
          Alcotest.test_case "unbound variable in a UNION branch" `Quick
            test_sem_unbound_in_union_branch;
          Alcotest.test_case "types per UNION branch" `Quick test_union_branch_types;
          Alcotest.test_case "empty UNION branch is positioned" `Quick
            test_empty_union_branch_positioned;
          Alcotest.test_case "unused variable" `Quick test_sem_unused;
          Alcotest.test_case "type clash" `Quick test_sem_type_clash;
          Alcotest.test_case "unknown attribute" `Quick test_sem_unknown_attr;
          Alcotest.test_case "contradictory range" `Quick test_sem_unsat_range;
          Alcotest.test_case "impossible edit distance" `Quick test_sem_unsat_edist;
          Alcotest.test_case "cartesian product" `Quick test_sem_cartesian;
          Alcotest.test_case "bad top-N parameter" `Quick test_sem_bad_limit;
          Alcotest.test_case "paper demo query is clean" `Quick test_sem_paper_query_clean;
        ] );
      ( "engine-gate",
        [
          Alcotest.test_case "unsat query refused" `Quick test_engine_refuses_unsat;
          Alcotest.test_case "facade check" `Quick test_facade_check;
          Alcotest.test_case "facade check uses gossiped statistics" `Quick
            test_facade_check_gossiped_stats;
        ] );
      ( "tracelint",
        [
          Alcotest.test_case "clean trace" `Quick test_lint_clean;
          Alcotest.test_case "orphan reply" `Quick test_lint_orphan_reply;
          Alcotest.test_case "multi reply" `Quick test_lint_multi_reply;
          Alcotest.test_case "routing loop" `Quick test_lint_routing_loop;
          Alcotest.test_case "retry revisit is not a loop" `Quick test_lint_retry_revisit;
          Alcotest.test_case "clock regression" `Quick test_lint_clock_regression;
          Alcotest.test_case "conservation vs metrics" `Quick test_lint_conservation;
          Alcotest.test_case "in-flight is informational" `Quick test_lint_in_flight;
          Alcotest.test_case "unknown kind vs protocol table" `Quick test_lint_unknown_kind;
          Alcotest.test_case "conservation skips fault marks" `Quick
            test_lint_conservation_skips_fault_marks;
          Alcotest.test_case "unhandled crash" `Quick test_lint_unhandled_crash;
        ] );
      ( "audit",
        [
          Alcotest.test_case "pgrid clean" `Quick test_audit_pgrid_clean;
          Alcotest.test_case "pgrid split arity" `Quick test_audit_pgrid_split_arity;
          Alcotest.test_case "pgrid misplaced item" `Quick test_audit_pgrid_misplaced_item;
          Alcotest.test_case "pgrid bad ref" `Quick test_audit_pgrid_bad_ref;
          Alcotest.test_case "pgrid replica divergence" `Quick test_audit_pgrid_replica_divergence;
          Alcotest.test_case "chord clean" `Quick test_audit_chord_clean;
          Alcotest.test_case "chord dead successors" `Quick test_audit_chord_dead_successors;
        ] );
    ]
