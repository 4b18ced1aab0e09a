(* Tests for the VQL language front-end (unistore_vql). *)

module Value = Unistore_triple.Value
module Ast = Unistore_vql.Ast
module Lexer = Unistore_vql.Lexer
module Parser = Unistore_vql.Parser
module Algebra = Unistore_vql.Algebra
module Engine = Unistore_qproc.Engine
module Qstats = Unistore_qproc.Qstats

let check = Alcotest.check

let parse_ok src =
  match Parser.parse src with Ok q -> q | Error e -> Alcotest.failf "parse failed: %s" e

let parse_err src =
  match Parser.parse src with Ok _ -> Alcotest.failf "expected failure for %S" src | Error e -> e

(* The parser checks syntax only; the semantic analyzer behind
   [Engine.parse_checked] rejects well-formed but invalid queries. *)
let checked_err src =
  ignore (parse_ok src);
  match Engine.parse_checked Qstats.empty src with
  | Ok _ -> Alcotest.failf "expected the analyzer to reject %S" src
  | Error e -> e

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The paper's §2 example query, verbatim modulo whitespace. *)
let paper_query =
  "SELECT ?name,?age,?cnt\n\
   WHERE {(?a,'name',?name) (?a,'age',?age)\n\
   (?a,'num_of_pubs',?cnt)\n\
   (?a,'has_published',?title) (?p,'title',?title)\n\
   (?p,'published_in',?conf) (?c,'confname',?conf)\n\
   (?c,'series',?sr) FILTER edist(?sr,'ICDE')<3\n\
   }\n\
   ORDER BY SKYLINE OF ?age MIN, ?cnt MAX"

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lex_basic () =
  let toks = Lexer.tokenize "SELECT ?x WHERE { (?x,'a',1) }" |> List.map fst in
  check Alcotest.int "token count" 13 (List.length toks);
  (match toks with
  | Lexer.SELECT :: Lexer.VAR "x" :: Lexer.WHERE :: Lexer.LBRACE :: _ -> ()
  | _ -> Alcotest.fail "unexpected token stream");
  match List.rev toks with Lexer.EOF :: _ -> () | _ -> Alcotest.fail "missing EOF"

let test_lex_keywords_case_insensitive () =
  let toks = Lexer.tokenize "select Where fIlTeR skyline" |> List.map fst in
  check Alcotest.int "4+eof" 5 (List.length toks);
  match toks with
  | [ Lexer.SELECT; Lexer.WHERE; Lexer.FILTER; Lexer.SKYLINE; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "keywords not recognized case-insensitively"

let test_lex_strings () =
  (match Lexer.tokenize "'hello world'" |> List.map fst with
  | [ Lexer.STRING "hello world"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "basic string");
  (match Lexer.tokenize {|'it\'s'|} |> List.map fst with
  | [ Lexer.STRING "it's"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "escaped quote");
  match Lexer.tokenize "'ICDE 2006 - WS'" |> List.map fst with
  | [ Lexer.STRING "ICDE 2006 - WS"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "string with dash (not a comment)"

let test_lex_numbers () =
  (match Lexer.tokenize "42 -7 3.5 -2.5e3" |> List.map fst with
  | [ Lexer.INT 42; Lexer.INT (-7); Lexer.FLOAT 3.5; Lexer.FLOAT (-2500.0); Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "numbers")

let test_lex_operators () =
  match Lexer.tokenize "= != < <= > >= <>" |> List.map fst with
  | [ Lexer.EQ; Lexer.NEQ; Lexer.LT; Lexer.LE; Lexer.GT; Lexer.GE; Lexer.NEQ; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "operators"

let test_lex_comment () =
  match Lexer.tokenize "SELECT -- a comment\n ?x" |> List.map fst with
  | [ Lexer.SELECT; Lexer.VAR "x"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "comment skipped"

let test_lex_errors () =
  (try
     ignore (Lexer.tokenize "'unterminated");
     Alcotest.fail "expected lex error"
   with Lexer.Error _ -> ());
  try
    ignore (Lexer.tokenize "@");
    Alcotest.fail "expected lex error"
  with Lexer.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_paper_query () =
  let q = parse_ok paper_query in
  check Alcotest.(option (list string)) "projection" (Some [ "name"; "age"; "cnt" ]) q.Ast.projection;
  check Alcotest.int "8 patterns" 8 (List.length q.Ast.patterns);
  check Alcotest.int "1 filter" 1 (List.length q.Ast.filters);
  (match q.Ast.filters with
  | [ Ast.ECmp (Ast.Lt, Ast.EEdist (Ast.EVar "sr", Ast.EConst (Value.S "ICDE")), Ast.EConst (Value.I 3)) ] ->
    ()
  | _ -> Alcotest.fail "edist filter shape");
  match q.Ast.order with
  | Some (Ast.Skyline [ ("age", Ast.Min); ("cnt", Ast.Max) ]) -> ()
  | _ -> Alcotest.fail "skyline clause"

let test_parse_star_distinct_limit () =
  let q = parse_ok "SELECT DISTINCT * WHERE { (?a,'x',?v) } LIMIT 10" in
  Alcotest.(check bool) "distinct" true q.Ast.distinct;
  check Alcotest.(option (list string)) "star" None q.Ast.projection;
  check Alcotest.(option int) "limit" (Some 10) q.Ast.limit

let test_parse_order_by () =
  let q = parse_ok "SELECT ?v WHERE { (?a,'x',?v) } ORDER BY ?v DESC, ?a" in
  match q.Ast.order with
  | Some (Ast.OrderBy [ ("v", Ast.Desc); ("a", Ast.Asc) ]) -> ()
  | _ -> Alcotest.fail "order clause"

let test_parse_filter_boolean_ops () =
  let q =
    parse_ok
      "SELECT ?v WHERE { (?a,'x',?v) FILTER ?v > 3 AND NOT (?v = 5 OR ?v = 7) }"
  in
  check Alcotest.int "one filter" 1 (List.length q.Ast.filters)

let test_parse_union () =
  let q =
    parse_ok
      "SELECT ?x WHERE { (?x,'a',?v) FILTER ?v > 1 } UNION { (?x,'b',?w) } UNION { (?x,'c',?u)        FILTER ?u = 2 }"
  in
  check Alcotest.int "two union branches" 2 (List.length q.Ast.union_branches);
  (match q.Ast.union_branches with
  | [ (ps1, fs1); (ps2, fs2) ] ->
    check Alcotest.int "branch1 patterns" 1 (List.length ps1);
    check Alcotest.int "branch1 filters" 0 (List.length fs1);
    check Alcotest.int "branch2 patterns" 1 (List.length ps2);
    check Alcotest.int "branch2 filters" 1 (List.length fs2)
  | _ -> Alcotest.fail "branch shape");
  (* Filter vars must be bound within their own branch. *)
  let e =
    checked_err "SELECT ?x WHERE { (?x,'a',?v) } UNION { (?x,'b',?w) FILTER ?v > 1 }"
  in
  Alcotest.(check bool) "cross-branch filter rejected" true
    (contains_sub e "within its branch");
  let e = checked_err "SELECT ?x WHERE { (?x,'a',?v) } UNION { }" in
  Alcotest.(check bool) "empty branch rejected" true (contains_sub e "UNION branch");
  (* pp roundtrip with union. *)
  let printed = Format.asprintf "%a" Ast.pp_query q in
  let q2 = parse_ok printed in
  check Alcotest.int "union preserved" 2 (List.length q2.Ast.union_branches)

let test_parse_constant_pattern () =
  let q = parse_ok "SELECT ?a WHERE { (?a, 'year', 2006) }" in
  match q.Ast.patterns with
  | [ { Ast.subj = Ast.TVar "a"; attr = Ast.TConst (Value.S "year"); obj = Ast.TConst (Value.I 2006); _ } ] ->
    ()
  | _ -> Alcotest.fail "pattern terms"

let test_parse_errors () =
  let e1 = parse_err "SELECT ?x WHERE { }" in
  Alcotest.(check bool) "mentions pattern" true (contains_sub e1 "pattern")

let test_parse_more_errors () =
  ignore (parse_err "SELECT WHERE { (?a,'x',?v) }");
  ignore (parse_err "SELECT ?v WHERE { (?a,'x',?v) } LIMIT 'ten'");
  ignore (parse_err "SELECT ?v WHERE { (?a,'x',?v) } ORDER BY SKYLINE OF ?v");
  ignore (parse_err "SELECT ?v WHERE { (?a,'x' }");
  ignore (parse_err "SELECT ?v WHERE { (?a,'x',?v) } trailing")

let test_validate_unbound () =
  let e = checked_err "SELECT ?ghost WHERE { (?a,'x',?v) }" in
  Alcotest.(check bool) "mentions unbound" true (contains_sub e "not bound");
  let e2 = checked_err "SELECT ?v WHERE { (?a,'x',?v) FILTER ?ghost > 1 }" in
  Alcotest.(check bool) "filter unbound" true (contains_sub e2 "not bound");
  let e3 = checked_err "SELECT ?v WHERE { (?a,'x',?v) } LIMIT 0" in
  Alcotest.(check bool) "bad limit" true (contains_sub e3 "LIMIT")

let test_roundtrip_pp () =
  (* pp output of the paper query re-parses to the same AST. *)
  let q = parse_ok paper_query in
  let printed = Format.asprintf "%a" Ast.pp_query q in
  let q2 = parse_ok printed in
  check Alcotest.int "patterns preserved" (List.length q.Ast.patterns) (List.length q2.Ast.patterns);
  check Alcotest.(option (list string)) "projection preserved" q.Ast.projection q2.Ast.projection

(* ------------------------------------------------------------------ *)
(* Algebra *)

let test_var_constraints () =
  let q =
    parse_ok
      "SELECT ?v WHERE { (?a,'x',?v) (?a,'s',?s) FILTER ?v >= 10 AND ?v < 20 FILTER \
       edist(?s,'ICDE') < 3 FILTER prefix(?s,'IC') }"
  in
  let cs = Algebra.var_constraints q.Ast.filters in
  (match List.assoc_opt "v" cs with
  | Some [ Algebra.Clower (Value.I 10, true); Algebra.Cupper (Value.I 20, false) ] -> ()
  | _ -> Alcotest.fail "range constraints on ?v");
  match List.assoc_opt "s" cs with
  | Some [ Algebra.Cedist ("ICDE", 2); Algebra.Cprefix "IC" ] -> ()
  | _ -> Alcotest.fail "string constraints on ?s"

let test_eval_expr () =
  let env = function
    | "x" -> Some (Value.I 5)
    | "s" -> Some (Value.S "ICDE")
    | "f" -> Some (Value.F 2.5)
    | _ -> None
  in
  let ev src =
    (* Parse an expression by wrapping it in a query. *)
    let q = parse_ok (Printf.sprintf "SELECT ?x WHERE { (?x,'a',?s) (?x,'b',?f) FILTER %s }" src) in
    match q.Ast.filters with [ e ] -> Algebra.eval_pred env e | _ -> Alcotest.fail "one filter"
  in
  Alcotest.(check bool) "cmp int" true (ev "?x > 3");
  Alcotest.(check bool) "cmp int false" false (ev "?x > 7");
  Alcotest.(check bool) "int/float unify" true (ev "?f < ?x");
  Alcotest.(check bool) "edist" true (ev "edist(?s,'ICDM') = 1");
  Alcotest.(check bool) "contains" true (ev "contains(?s,'CD')");
  Alcotest.(check bool) "prefix" true (ev "prefix(?s,'IC')");
  Alcotest.(check bool) "prefix false" false (ev "prefix(?s,'CD')");
  Alcotest.(check bool) "and/or/not" true (ev "?x = 5 AND NOT (?x = 4 OR ?x = 6)");
  Alcotest.(check bool) "unbound var is error=false" false (ev "?x = 5 AND ?x < ?f AND ?x > ?f");
  Alcotest.(check bool) "type error is false" false (ev "?s > 3")

let test_eval_or_error_absorption () =
  let env = function "x" -> Some (Value.I 1) | _ -> None in
  let q = parse_ok "SELECT ?x WHERE { (?x,'a',?y) FILTER ?x = 1 OR ?y = 2 }" in
  match q.Ast.filters with
  | [ e ] -> Alcotest.(check bool) "true OR error = true" true (Algebra.eval_pred env e)
  | _ -> Alcotest.fail "one filter"

let () =
  Alcotest.run "unistore_vql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lex_basic;
          Alcotest.test_case "keywords case-insensitive" `Quick test_lex_keywords_case_insensitive;
          Alcotest.test_case "strings" `Quick test_lex_strings;
          Alcotest.test_case "numbers" `Quick test_lex_numbers;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "comments" `Quick test_lex_comment;
          Alcotest.test_case "errors" `Quick test_lex_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "paper example query" `Quick test_parse_paper_query;
          Alcotest.test_case "star/distinct/limit" `Quick test_parse_star_distinct_limit;
          Alcotest.test_case "order by" `Quick test_parse_order_by;
          Alcotest.test_case "boolean filters" `Quick test_parse_filter_boolean_ops;
          Alcotest.test_case "constant patterns" `Quick test_parse_constant_pattern;
          Alcotest.test_case "union" `Quick test_parse_union;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "more errors" `Quick test_parse_more_errors;
          Alcotest.test_case "unbound variables rejected" `Quick test_validate_unbound;
          Alcotest.test_case "pp roundtrip" `Quick test_roundtrip_pp;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "constraint extraction" `Quick test_var_constraints;
          Alcotest.test_case "expression evaluation" `Quick test_eval_expr;
          Alcotest.test_case "OR absorbs errors" `Quick test_eval_or_error_absorption;
        ] );
    ]
