(* Tests for the source-level determinism & protocol-exhaustiveness
   linter (Unistore_analysis.Srclint): one seeded-defect fixture per
   rule family, the matching clean fixture, suppression via
   [(* srclint: allow <rule> *)], the protocol cross-checks against a
   toy protocol, and — the point of the exercise — a meta-test that the
   repo's own lib/ and bin/ trees lint clean. *)

module Srclint = Unistore_analysis.Srclint
module Protocol = Unistore_analysis.Protocol
module D = Unistore_analysis.Diagnostic

let codes ds = List.map (fun (d : D.t) -> d.D.code) ds
let has code ds = List.exists (fun (d : D.t) -> String.equal d.D.code code) ds

let check_has what code ds =
  if not (has code ds) then
    Alcotest.failf "%s: expected a %S diagnostic, got [%s]" what code
      (String.concat "; " (codes ds))

let check_clean what ds =
  if ds <> [] then
    Alcotest.failf "%s: expected no diagnostics, got [%s]" what (String.concat "; " (codes ds))

let lint ?(path = "lib/fixture/fixture.ml") ?rules src = Srclint.lint_source ?rules ~path src

(* ------------------------------------------------------------------ *)
(* Rule 1: unordered-iteration *)

let unordered_defect () =
  check_has "escaping fold" "unordered-iteration"
    (lint "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []");
  check_has "side-effecting iter" "unordered-iteration"
    (lint "let dump tbl = Hashtbl.iter (fun k v -> print_endline (k ^ v)) tbl");
  check_has "qualified Stdlib fold" "unordered-iteration"
    (lint "let keys tbl = Stdlib.Hashtbl.fold (fun k _ acc -> k :: acc) tbl []")

let unordered_sanctioned () =
  check_clean "fold piped into sort"
    (lint "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare");
  check_clean "fold as sort argument"
    (lint "let keys tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])");
  check_clean "fold under @@ sort"
    (lint "let keys tbl = List.sort compare @@ Hashtbl.fold (fun k _ acc -> k :: acc) tbl []");
  check_clean "fold into sort_uniq"
    (lint
       "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort_uniq compare")

let unordered_suppressed () =
  check_clean "allow comment on the line"
    (lint
       "let n tbl = Hashtbl.fold (fun _ v acc -> acc + v) tbl 0 (* srclint: allow \
        unordered-iteration *)");
  (* The annotation only covers its own line. *)
  check_has "allow comment on another line" "unordered-iteration"
    (lint
       "(* srclint: allow unordered-iteration *)\n\
        let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []")

(* ------------------------------------------------------------------ *)
(* Rule 2: ambient-effects *)

let ambient_defect () =
  check_has "Random" "ambient-effects" (lint "let jitter () = Random.float 1.0");
  check_has "Sys.time" "ambient-effects" (lint "let t () = Sys.time ()");
  check_has "Unix.gettimeofday" "ambient-effects" (lint "let now () = Unix.gettimeofday ()")

let ambient_exempt_and_clean () =
  (* The seeded-RNG module itself is the one place ambient randomness
     is allowed to live. *)
  check_clean "rng.ml is exempt" (lint ~path:"lib/util/rng.ml" "let x () = Random.int 10");
  check_clean "seeded flows are fine" (lint "let x rng = Rng.float rng 1.0");
  check_clean "suppressed"
    (lint "let x () = Random.int 10 (* srclint: allow ambient-effects *)")

(* ------------------------------------------------------------------ *)
(* Rule 3: polymorphic-compare *)

let polycmp_defect () =
  check_has "float equality" "polymorphic-compare" (lint "let eq x = x = 1.0");
  check_has "float inequality" "polymorphic-compare" (lint "let ne x = x <> 0.5");
  check_has "annotated float compare" "polymorphic-compare"
    (lint "let c a b = compare (a : float) b");
  check_has "bitkey equality" "polymorphic-compare" (lint "let f k = k = Bitkey.take k 3")

let polycmp_clean () =
  check_clean "Float.equal" (lint "let eq x = Float.equal x 1.0");
  check_clean "untyped operands" (lint "let eq a b = a = b");
  check_clean "int literals" (lint "let eq x = x = 3");
  check_clean "suppressed"
    (lint "let eq x = x = 1.0 (* srclint: allow polymorphic-compare *)")

(* Per-rule toggling: a disabled rule stays silent. *)
let rule_selection () =
  let src = "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []" in
  check_clean "unordered rule off"
    (lint ~rules:[ Srclint.Ambient_effects; Srclint.Polymorphic_compare ] src);
  check_has "unordered rule on" "unordered-iteration"
    (lint ~rules:[ Srclint.Unordered_iteration ] src)

(* ------------------------------------------------------------------ *)
(* Rule: blocking-wait *)

let blocking_defect () =
  check_has "run_until" "blocking-wait"
    (lint "let wait sim cell = ignore (Sim.run_until sim (fun () -> !cell <> None))");
  check_has "run_all" "blocking-wait" (lint "let drain sim = Sim.run_all sim");
  check_has "fully qualified run_for" "blocking-wait"
    (lint "let idle sim = Unistore_sim.Sim.run_for sim ~duration:10.0");
  check_has "await below the facade" "blocking-wait"
    (lint "let get sim f = Sim.await sim f");
  check_has "annotation on another line" "blocking-wait"
    (lint "(* srclint: allow blocking-wait *)\nlet drain sim = Sim.run_all sim")

let blocking_allowed () =
  check_clean "the simulator itself" (lint ~path:"lib/sim/sim.ml" "let drain t = Sim.run_all t");
  check_clean "annotated drain"
    (lint "let settle t = Sim.run_all t.sim (* srclint: allow blocking-wait *)");
  check_clean "continuation-passing code"
    (lint "let later sim k = Sim.schedule sim ~delay:1.0 (fun () -> k ())");
  check_clean "rule off" (lint ~rules:[ Srclint.Ambient_effects ] "let drain sim = Sim.run_all sim")

(* ------------------------------------------------------------------ *)
(* Rule: uncancelled-timeout *)

let timeout_defect () =
  check_has "config field in the delay" "uncancelled-timeout"
    (lint
       "let arm t rid = Sim.schedule t.sim ~delay:t.config.timeout_ms (fun () -> expire t rid)");
  check_has "timeout inside arithmetic" "uncancelled-timeout"
    (lint "let arm sim ~timeout_ms f = Unistore_sim.Sim.schedule sim ~delay:(2.0 *. timeout_ms) f")

let timeout_allowed () =
  check_clean "cancellable timer"
    (lint "let arm t = Sim.timer t.sim ~delay:t.config.timeout_ms (fun () -> expire t)");
  check_clean "delay without a timeout"
    (lint "let tick t a = Sim.schedule t.sim ~delay:gossip_period_ms (fun () -> go t a)");
  check_clean "the simulator itself"
    (lint ~path:"lib/sim/faults.ml" "let f sim c g = Sim.schedule sim ~delay:c.timeout_ms g");
  check_clean "annotated"
    (lint
       "let f sim c g = Sim.schedule sim ~delay:c.timeout_ms g (* srclint: allow uncancelled-timeout *)")

(* ------------------------------------------------------------------ *)
(* Rule: oracle *)

let liveness_read = "let up t p = Net.Oracle.is_alive t.net p"

let oracle_defect () =
  check_has "routing" "oracle" (lint ~path:"lib/pgrid/routing.ml" liveness_read);
  check_has "query processor" "oracle" (lint ~path:"lib/qproc/exec.ml" liveness_read);
  check_has "an overlay's oracle" "oracle"
    (lint ~path:"lib/qproc/exec.ml" "let owners ov k = Overlay.Oracle.responsible ov k");
  check_has "annotated for another rule" "oracle"
    (lint ~path:"lib/pgrid/routing.ml"
       "let up t p = Net.Oracle.is_alive t.net p (* srclint: allow blocking-wait *)")

let oracle_allowed () =
  check_clean "fault scenarios" (lint ~path:"lib/sim/faults.ml" liveness_read);
  check_clean "the facade" (lint ~path:"lib/core/unistore.ml" liveness_read);
  check_clean "annotated with its owner"
    (lint ~path:"lib/pgrid/routing.ml"
       "let up t p = Net.Oracle.is_alive t.net p (* srclint: allow oracle item-19 *)");
  check_clean "an oracle's own body"
    (lint ~path:"lib/pgrid/overlay.ml"
       "module Oracle = struct let alive t id = Net.Oracle.is_alive t.net id end")

(* ------------------------------------------------------------------ *)
(* Rule 4: protocol-exhaustiveness, against a toy protocol *)

let toy_table =
  [
    { Protocol.constructor = "Ping"; kind = "ping"; role = Protocol.Request { ops = [ "ping" ] } };
    { Protocol.constructor = "Pong"; kind = "pong"; role = Protocol.Reply };
  ]

let toy_spec =
  {
    Srclint.proto_name = "toy";
    table = toy_table;
    type_name = "t";
    size_fn = "size";
    kind_fn = "kind";
    dispatch_fn = "dispatch";
  }

let parse src = Parse.implementation (Lexing.from_string src)

let toy_decl =
  "type t = Ping of int | Pong of int\n\
   let size = function Ping _ -> 8 | Pong _ -> 8\n\
   let kind = function Ping _ -> \"ping\" | Pong _ -> \"pong\"\n"

let toy_handler =
  "let dispatch st msg = match msg with Ping _ -> st | Pong _ -> st\n\
   let register st = add_pending st ~op:\"ping\" ()\n"

let proto_check ~decl ~handler =
  List.map snd
    (Srclint.check_protocol ~spec:toy_spec
       ~decl:("lib/toy/message.ml", parse decl)
       ~handlers:[ ("lib/toy/overlay.ml", parse handler) ])

let protocol_clean () = check_clean "toy protocol in sync" (proto_check ~decl:toy_decl ~handler:toy_handler)

let protocol_defects () =
  (* A constructor the table has never heard of. *)
  let extra_ctor =
    "type t = Ping of int | Pong of int | Probe of int\n\
     let size = function Ping _ -> 8 | Pong _ -> 8 | Probe _ -> 8\n\
     let kind = function Ping _ -> \"ping\" | Pong _ -> \"pong\" | Probe _ -> \"probe\"\n"
  in
  check_has "constructor missing from table" "protocol-exhaustiveness"
    (proto_check ~decl:extra_ctor
       ~handler:
         "let dispatch st msg = match msg with Ping _ -> st | Pong _ -> st | Probe _ -> st\n\
          let register st = add_pending st ~op:\"ping\" ()\n");
  (* A wildcard arm hiding a constructor in [size]. *)
  let wildcard_size =
    "type t = Ping of int | Pong of int\n\
     let size = function Ping _ -> 8 | _ -> 8\n\
     let kind = function Ping _ -> \"ping\" | Pong _ -> \"pong\"\n"
  in
  check_has "wildcard size arm" "protocol-exhaustiveness"
    (proto_check ~decl:wildcard_size ~handler:toy_handler);
  (* The kind function disagreeing with the table. *)
  let kind_drift =
    "type t = Ping of int | Pong of int\n\
     let size = function Ping _ -> 8 | Pong _ -> 8\n\
     let kind = function Ping _ -> \"ping\" | Pong _ -> \"pong-v2\"\n"
  in
  check_has "kind string drift" "protocol-exhaustiveness"
    (proto_check ~decl:kind_drift ~handler:toy_handler);
  (* A constructor the dispatcher never matches. *)
  check_has "unhandled in dispatch" "protocol-exhaustiveness"
    (proto_check ~decl:toy_decl
       ~handler:
         "let dispatch st msg = match msg with Ping _ -> st | _ -> st\n\
          let register st = add_pending st ~op:\"ping\" ()\n");
  (* A request kind with no pending-table registration. *)
  check_has "unregistered request op" "protocol-exhaustiveness"
    (proto_check ~decl:toy_decl ~handler:"let dispatch st msg = match msg with Ping _ -> st | Pong _ -> st\n")

(* The real protocol tables stay in sync with themselves. *)
let protocol_tables () =
  Alcotest.(check bool) "pgrid table nonempty" true (List.length Protocol.pgrid > 0);
  Alcotest.(check bool) "chord table nonempty" true (List.length Protocol.chord > 0);
  let sorted l = List.sort_uniq String.compare l = l in
  Alcotest.(check bool) "pgrid kinds sorted+unique" true (sorted (Protocol.kinds Protocol.pgrid));
  Alcotest.(check bool) "known_kinds covers both" true
    (List.for_all
       (fun k -> List.mem k Protocol.known_kinds)
       (Protocol.kinds Protocol.pgrid @ Protocol.kinds Protocol.chord))

(* ------------------------------------------------------------------ *)
(* Parse errors surface as diagnostics, not exceptions *)

let parse_error () =
  check_has "unparsable source" "parse-error" (lint "let let let = = ((")

(* ------------------------------------------------------------------ *)
(* Meta: the repo's own tree lints clean *)

(* Under `dune runtest` the test binary runs in [_build/default/test],
   with the copied source tree one level up. *)
let repo_root () =
  List.find_opt
    (fun dir -> Sys.file_exists (Filename.concat dir "lib/pgrid/message.ml"))
    [ ".."; "../.."; "." ]

let real_tree_clean () =
  match repo_root () with
  | None -> Alcotest.fail "could not locate the repo's lib/ tree from the test directory"
  | Some root ->
    let paths =
      List.filter Sys.file_exists [ Filename.concat root "lib"; Filename.concat root "bin" ]
    in
    let reports = Srclint.lint_paths paths in
    if Srclint.has_errors reports then
      Alcotest.failf "the real tree must lint clean:\n%s" (Srclint.render_reports reports);
    (* The protocol cross-check must actually have engaged (both
       substrates present), or a silent skip would fake cleanliness. *)
    Alcotest.(check bool) "scanned the pgrid sources" true
      (List.exists
         (fun (r : Srclint.report) ->
           Filename.basename r.Srclint.path = "message.ml")
         reports)

let () =
  Alcotest.run "srclint"
    [
      ( "unordered-iteration",
        [
          Alcotest.test_case "seeded defects flagged" `Quick unordered_defect;
          Alcotest.test_case "sort-normalized folds sanctioned" `Quick unordered_sanctioned;
          Alcotest.test_case "per-line suppression" `Quick unordered_suppressed;
        ] );
      ( "ambient-effects",
        [
          Alcotest.test_case "seeded defects flagged" `Quick ambient_defect;
          Alcotest.test_case "exemptions and clean code" `Quick ambient_exempt_and_clean;
        ] );
      ( "polymorphic-compare",
        [
          Alcotest.test_case "seeded defects flagged" `Quick polycmp_defect;
          Alcotest.test_case "clean and suppressed" `Quick polycmp_clean;
          Alcotest.test_case "rule toggling" `Quick rule_selection;
        ] );
      ( "blocking-wait",
        [
          Alcotest.test_case "seeded defects flagged" `Quick blocking_defect;
          Alcotest.test_case "exemptions and annotations" `Quick blocking_allowed;
        ] );
      ( "uncancelled-timeout",
        [
          Alcotest.test_case "seeded defects flagged" `Quick timeout_defect;
          Alcotest.test_case "cancellable and exempt deadlines" `Quick timeout_allowed;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "peer code reading the global view flagged" `Quick oracle_defect;
          Alcotest.test_case "readers, owners and oracle bodies" `Quick oracle_allowed;
        ] );
      ( "protocol-exhaustiveness",
        [
          Alcotest.test_case "toy protocol in sync" `Quick protocol_clean;
          Alcotest.test_case "seeded drift flagged" `Quick protocol_defects;
          Alcotest.test_case "static tables well-formed" `Quick protocol_tables;
        ] );
      ("driver", [ Alcotest.test_case "parse errors are diagnostics" `Quick parse_error ]);
      ("meta", [ Alcotest.test_case "the real tree lints clean" `Quick real_tree_clean ]);
    ]
