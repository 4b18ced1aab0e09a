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

(* The previous Map-based binding, kept as a model: the slot-indexed
   binding must agree with it on every schema layout. *)
module Model = struct
  module M = Map.Make (String)

  let bind t v x =
    match M.find_opt v t with
    | Some y -> if Value.equal x y then Some t else None
    | None -> Some (M.add v x t)

  let term t (term : Ast.term) x =
    match term with
    | Ast.TConst c -> if Value.equal c x then Some t else None
    | Ast.TVar v -> bind t v x

  let match_triple_into t (p : Ast.pattern) (tr : Triple.t) =
    Option.bind (term t p.Ast.subj (Value.S tr.Triple.oid)) (fun t ->
        Option.bind (term t p.Ast.attr (Value.S tr.Triple.attr)) (fun t ->
            term t p.Ast.obj tr.Triple.value))

  let compatible a b =
    let ok = ref true in
    let m = M.union (fun _ x y -> if not (Value.equal x y) then ok := false; Some x) a b in
    if !ok then Some m else None

  let join_key vs t =
    List.fold_left
      (fun acc v ->
        match (acc, M.find_opt v t) with
        | Some k, Some x -> Some (k ^ Value.encode x ^ "\000")
        | _ -> None)
      (Some "") vs

  let project vs t = M.filter (fun v _ -> List.mem v vs) t
  let fingerprint t = M.fold (fun v x acc -> acc ^ v ^ "=" ^ Value.encode x ^ ";") t ""
end

let gen_var = QCheck2.Gen.oneofl [ "a"; "b"; "c"; "d"; "e" ]

let gen_value =
  QCheck2.Gen.oneofl
    [ Value.I 0; Value.I 1; Value.I 2; Value.S "x"; Value.S "y"; Value.F 1.0; Value.B true ]

let gen_assign = QCheck2.Gen.(list_size (0 -- 5) (pair gen_var gen_value))

let five = Binding.schema [ "a"; "b"; "c"; "d"; "e" ]

(* Both layouts of one assignment list: on the schema of the variables it
   binds (from [Binding.empty]) or on the shared schema of all five. *)
let build ~shared assign =
  let start = if shared then Binding.empty_of five else Binding.empty in
  List.fold_left
    (fun (b, m) (v, x) ->
      match (Binding.bind b v x, Model.bind m v x) with
      | Some b, Some m -> (b, m)
      | None, None -> (b, m)
      | _ -> QCheck2.Test.fail_report "bind disagrees with the model")
    (start, Model.M.empty) assign

let agrees b m = Binding.bindings b = Model.M.bindings m

let prop_binding_matches_model =
  let open QCheck2.Gen in
  let gen_term = oneof [ map (fun v -> Ast.TVar v) gen_var; map (fun x -> Ast.TConst x) gen_value ] in
  let gen_pattern = map3 (fun s a o -> Ast.mk_pattern s a o) gen_term gen_term gen_term in
  let gen_triple =
    map3
      (fun o a v -> Triple.make ~oid:o ~attr:a v)
      (oneofl [ "x"; "y" ]) (oneofl [ "x"; "y" ]) gen_value
  in
  let gen =
    tup4 (pair bool bool) (pair gen_assign gen_assign) (list_size (0 -- 4) gen_var)
      (pair gen_pattern gen_triple)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"binding = Map model (shared and mismatched schemas)" ~count:500 gen
       (fun ((shared_a, shared_b), (assign_a, assign_b), vs, (p, tr)) ->
         let a, ma = build ~shared:shared_a assign_a and b, mb = build ~shared:shared_b assign_b in
         let same_opt x y =
           match (x, y) with
           | Some x, Some y -> agrees x y
           | None, None -> true
           | _ -> false
         in
         agrees a ma
         && same_opt (Binding.compatible a b) (Model.compatible ma mb)
         && Binding.join_key vs a = Model.join_key vs ma
         && agrees (Binding.project vs a) (Model.project vs ma)
         && String.equal (Binding.fingerprint (Binding.project vs a)) (Model.fingerprint (Model.project vs ma))
         && String.equal (Binding.fingerprint a) (Model.fingerprint ma)
         && Binding.vars a = List.map fst (Model.M.bindings ma)
         && List.for_all (fun v -> Binding.find a v = Model.M.find_opt v ma) vs
         && same_opt (Binding.match_triple_into a p tr) (Model.match_triple_into ma p tr)
         &&
         (* The executor's path: the pattern compiled to the shared schema. *)
         let base, mbase = build ~shared:true assign_a in
         same_opt
           (Binding.match_compiled base (Binding.compile five p) tr)
           (Model.match_triple_into mbase p tr)))

(* A test-local codec for the row batches mutant carriers ship (see
   [Unistore_pgrid.Wire.rows_bytes]): the variable count and names, the
   row count, then every row's values in name order. Names and values
   are string fields: a literal, varint [2 * len] then the bytes, or a
   back-reference to the latest earlier equal field, varint [2 * d + 1]
   with [d] the fields between them, whichever is shorter. *)
let rec put_varint b n =
  if n < 128 then Buffer.add_char b (Char.chr n)
  else begin
    Buffer.add_char b (Char.chr (n land 127 lor 128));
    put_varint b (n lsr 7)
  end

let encode_rows rows =
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
  let names = match rows with [] -> [] | r :: _ -> Binding.vars r in
  put_varint b (List.length names);
  List.iter put_field names;
  put_varint b (List.length rows);
  List.iter (fun r -> List.iter (fun (_, x) -> put_field (Value.encode x)) (Binding.bindings r)) rows;
  Buffer.contents b

(* The names and every row's values, in order. *)
let decode_rows s =
  let pos = ref 0 in
  let rec varint shift =
    let c = Char.code s.[!pos] in
    incr pos;
    ((c land 127) lsl shift) lor if c < 128 then 0 else varint (shift + 7)
  in
  let seen = ref [] in
  let field () =
    let v = varint 0 in
    let x =
      if v land 1 = 0 then begin
        let x = String.sub s !pos (v / 2) in
        pos := !pos + (v / 2);
        x
      end
      else List.nth !seen (v / 2)
    in
    seen := x :: !seen;
    x
  in
  let names = List.init (varint 0) (fun _ -> field ()) in
  let rows =
    List.init (varint 0) (fun _ ->
        List.map (fun _ -> Option.get (Value.decode (field ()))) names)
  in
  if !pos <> String.length s then QCheck2.Test.fail_report "trailing bytes";
  (names, rows)

let prop_row_codec =
  let open QCheck2.Gen in
  (* Few distinct values, so rows repeat them near and far; strings with
     escapes and ones long enough for a two-byte literal length. *)
  let gen_string =
    oneof
      [
        oneofl [ ""; "x"; "s"; "a\000b"; "\xff\xfe"; "quote\"'"; "caf\xc3\xa9" ];
        string_size ~gen:char (0 -- 4);
        map (fun n -> String.make n 'w') (60 -- 140);
      ]
  in
  let gen_value =
    oneof
      [
        map (fun s -> Value.S s) gen_string;
        map (fun i -> Value.I i) (oneof [ -2 -- 2; oneofl [ min_int; max_int; 1 lsl 40 ] ]);
        map (fun f -> Value.F f) (oneofl [ 0.0; -0.0; 1.5; -3.25; infinity; neg_infinity; 1e300 ]);
        map (fun b -> Value.B b) bool;
      ]
  in
  let gen_batch =
    let* names =
      map (List.sort_uniq String.compare) (list_size (0 -- 4) (oneof [ gen_string; gen_var ]))
    in
    let* pool = list_size (1 -- 6) gen_value in
    let row = flatten_l (List.map (fun _ -> oneofl pool) names) in
    map (fun rows -> (names, rows)) (list_size (frequency [ (3, 0 -- 5); (1, 30 -- 120) ]) row)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"row codec: decode, exact length" ~count:300 gen_batch
       (fun (names, rows) ->
         let batch = List.map (fun row -> b_of_list (List.combine names row)) rows in
         let coded = encode_rows batch in
         let names', rows' = decode_rows coded in
         names' = (if rows = [] then [] else names)
         && List.equal (List.equal Value.equal) rows' rows
         && String.length coded = Unistore_qproc.Exec.rows_bytes batch))

(* A batch on two variable sets has no size: sizing it raises. Rows on
   different schemas that bind the same variables are one batch. *)
let test_rows_one_variable_set () =
  let a = b_of_list [ ("x", Value.I 1) ] and ab = b_of_list [ ("x", Value.I 1); ("y", Value.I 2) ] in
  let wide = Option.get (Binding.bind (Binding.empty_of (Binding.schema [ "x"; "y" ])) "x" (Value.I 3)) in
  check Alcotest.(list string) "same variables" [ "x" ] (Binding.batch_vars [ a; wide; a ]);
  Alcotest.check_raises "different variables"
    (Invalid_argument "Binding.batch_vars: the rows bind different variables") (fun () ->
      ignore (Unistore_qproc.Exec.rows_bytes [ a; ab ]))

(* A thresholded edist comparison runs the banded DP; its verdict must be
   that of the full distance compared afterwards, for every operator,
   both operand orders and bounds down to negative ones and out to the
   int range's ends, where [d - 1] or [d + 1] would wrap. *)
let prop_edist_threshold_matches_levenshtein =
  let open QCheck2.Gen in
  let word = string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 7) in
  let op = oneofl Ast.[ Lt; Le; Gt; Ge; Eq; Neq ] in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"thresholded edist = levenshtein then compare" ~count:1000
       (tup5 word word
          (frequency
             [
               (8, -2 -- 8);
               (1, oneofl [ max_int; max_int - 1; max_int - 7; min_int; min_int + 1 ]);
             ])
          op bool)
       (fun (x, y, d, op, flipped) ->
         let dist = Unistore_util.Strdist.levenshtein x y in
         let edist = Ast.EEdist (Ast.EVar "x", Ast.EConst (Value.S y)) in
         let bound = Ast.EConst (Value.I d) in
         let e = if flipped then Ast.ECmp (op, bound, edist) else Ast.ECmp (op, edist, bound) in
         let l, r = if flipped then (d, dist) else (dist, d) in
         let expected =
           match op with
           | Ast.Lt -> l < r
           | Ast.Le -> l <= r
           | Ast.Gt -> l > r
           | Ast.Ge -> l >= r
           | Ast.Eq -> l = r
           | Ast.Neq -> l <> r
         in
         let lookup v = if String.equal v "x" then Some (Value.S x) else None in
         Unistore_vql.Algebra.eval_expr lookup e = Some (Value.B expected)))

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

(* A q-gram access resolves its matches in a second batched round
   through the A#v/V index: its estimate exceeds the gram fetch alone,
   in messages and in latency. *)
let test_cost_gram_search_resolves () =
  let est = Cost.estimate_access env synthetic_stats (Cost.ASim (Some "name", "Robert", 1)) in
  let grams = List.length (Unistore_util.Strdist.prefix_grams ~q:3 ~d:1 "Robert") in
  let fetch =
    Cost.probe_round_cost env ~keys:(float_of_int grams) ~cardinality:est.Cost.cardinality
  in
  Alcotest.(check bool) "more messages" true (est.Cost.messages > fetch.Cost.messages);
  Alcotest.(check bool) "one more round" true (est.Cost.latency > fetch.Cost.latency)

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

(* The trace names a bind-join step the way the plan printer does. *)
let test_step_trace_label () =
  let trace ~bindjoin ~shipped =
    let pattern =
      Ast.mk_pattern (Ast.TVar "a") (Ast.TConst (Value.S "name")) (Ast.TVar "n")
    in
    {
      Exec.step =
        {
          Physical.pattern;
          access = Cost.AAttrAll "name";
          bindjoin;
          residual = [];
          est = { Cost.messages = 0.0; latency = 0.0; cardinality = 0.0 };
        };
      rows_in = 4;
      actual_card = 3;
      messages = 2;
      latency = 12.5;
      carrier = 7;
      shipped;
      at_start = false;
    }
  in
  check Alcotest.string "bind-join step"
    "(?a, 'name', ?n) via bind-join/av-scan(name) at peer7: 4 -> 3 rows, 2 msgs, 12.5 ms, 0 B shipped"
    (Format.asprintf "%a" Exec.pp_step_trace (trace ~bindjoin:true ~shipped:0));
  check Alcotest.string "scan step"
    "(?a, 'name', ?n) via av-scan(name) at peer7: 4 -> 3 rows, 2 msgs, 12.5 ms, 420 B shipped"
    (Format.asprintf "%a" Exec.pp_step_trace (trace ~bindjoin:false ~shipped:420))

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
          prop_binding_matches_model;
          prop_row_codec;
          Alcotest.test_case "row batches bind one variable set" `Quick test_rows_one_variable_set;
          prop_edist_threshold_matches_levenshtein;
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
          Alcotest.test_case "q-gram search pays its resolution round" `Quick
            test_cost_gram_search_resolves;
        ] );
      ( "postprocess",
        [ Alcotest.test_case "pipeline combinations" `Quick test_postprocess_pipeline ] );
      ("trace", [ Alcotest.test_case "step trace label" `Quick test_step_trace_label ]);
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
