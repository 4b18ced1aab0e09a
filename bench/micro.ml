(* Bechamel microbenchmarks for the core local data structures and
   algorithms (one Test.make per kernel operation). These complement the
   simulation experiments: E1-E12 measure network cost in simulated
   time/messages; here we measure real CPU cost of the building blocks. *)

open Bechamel
open Toolkit
module Bitkey = Unistore_util.Bitkey
module Ophash = Unistore_util.Ophash
module Strdist = Unistore_util.Strdist
module Rng = Unistore_util.Rng
module Value = Unistore.Value
module Triple = Unistore.Triple
module Parser = Unistore_vql.Parser
module Binding = Unistore_qproc.Binding
module Ranking = Unistore_qproc.Ranking
module Ast = Unistore_vql.Ast
module Store = Unistore_pgrid.Store
module Request = Unistore_pgrid.Request
module Tstore = Unistore_triple.Tstore
module Exec = Unistore_qproc.Exec

let paper_query =
  "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) \
   (?a,'num_of_pubs',?cnt) (?a,'has_published',?title) (?p,'title',?title) \
   (?p,'published_in',?conf) (?c,'confname',?conf) (?c,'series',?sr) \
   FILTER edist(?sr,'ICDE')<3 } ORDER BY SKYLINE OF ?age MIN, ?cnt MAX"

(* The read path's kernels at the sizes of the paper's skyline query on
   the query_mix deployment: a 726 x 1,266-row hash join on ?title, and
   an 800-item range reply from three peers with every item held by two
   replicas, to dedupe and then to decode. *)
let join_sides () =
  let schema = Binding.schema [ "a"; "p"; "title" ] in
  let row binds =
    List.fold_left
      (fun b (v, x) -> Option.get (Binding.bind b v x))
      (Binding.empty_of schema) binds
  in
  let title i = Value.S (Printf.sprintf "title of publication %d" i) in
  let left =
    List.init 726 (fun i -> row [ ("a", Value.S (Printf.sprintf "a%d" (i mod 200))); ("title", title i) ])
  in
  let right =
    List.init 1266 (fun j -> row [ ("p", Value.S (Printf.sprintf "p%d" j)); ("title", title (j mod 726)) ])
  in
  (left, right)

(* A triple's A#v entry, as {!Tstore.items_of_triple} stores it. *)
let av_entry tr =
  List.find
    (fun (i : Store.item) -> String.starts_with ~prefix:"A\000" i.Store.key)
    (Tstore.items_of_triple ~qgrams:false tr)

let reply_items () =
  let items =
    List.init 400 (fun i ->
        av_entry
          (Triple.make ~oid:(Printf.sprintf "p%d" i) ~attr:"title"
             (Value.S (Printf.sprintf "title of publication %d" (i / 2)))))
  in
  (* Each of three peers answers its key-ordered share, and the overlay
     prepends every hit reversed, as a shower's replies accumulate. *)
  let share k = List.filteri (fun i _ -> i mod 3 = k) items in
  List.concat_map (fun k -> List.rev (share k @ share k)) [ 0; 1; 2 ]

let tests =
  let rng = Rng.create 7 in
  let key_a = Bitkey.random rng 64 and key_b = Bitkey.random rng 64 in
  let long_a = "similarity queries on structured data in structured overlays" in
  let long_b = "similarity query on structered data in structured overlay" in
  let skyline_rows =
    List.init 1000 (fun _ ->
        let b = Binding.empty in
        let b = Option.get (Binding.bind b "x" (Value.I (Rng.int rng 100))) in
        Option.get (Binding.bind b "y" (Value.I (Rng.int rng 100))))
  in
  let goals = [ ("x", Ast.Min); ("y", Ast.Max) ] in
  let left, right = join_sides () in
  let reply = reply_items () in
  let deduped = Request.dedupe_items reply in
  let store = Store.create () in
  List.iteri
    (fun idx w ->
      ignore
        (Store.put store
           { Store.key = w; item_id = string_of_int idx; payload = w; version = 0 }))
    (List.init 2000 (fun _ ->
         String.init (6 + Rng.int rng 6) (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26))));
  Test.make_grouped ~name:"kernel"
    [
      Test.make ~name:"bitkey.compare" (Staged.stage (fun () -> Bitkey.compare key_a key_b));
      Test.make ~name:"bitkey.common_prefix" (Staged.stage (fun () -> Bitkey.common_prefix_len key_a key_b));
      Test.make ~name:"ophash.encode_int" (Staged.stage (fun () -> Ophash.encode_int 123456789));
      Test.make ~name:"levenshtein.60ch" (Staged.stage (fun () -> Strdist.levenshtein long_a long_b));
      Test.make ~name:"within_distance.d2" (Staged.stage (fun () -> Strdist.within_distance long_a long_b 2));
      Test.make ~name:"qgrams.extract" (Staged.stage (fun () -> Strdist.distinct_qgrams ~q:3 long_a));
      Test.make ~name:"vql.parse_paper_query" (Staged.stage (fun () -> Parser.parse paper_query));
      Test.make ~name:"skyline.1000rows" (Staged.stage (fun () -> Ranking.skyline goals skyline_rows));
      Test.make ~name:"exec.hash_join.726x1266" (Staged.stage (fun () -> Exec.hash_join left right));
      Test.make ~name:"request.dedupe_items.800" (Staged.stage (fun () -> Request.dedupe_items reply));
      Test.make ~name:"tstore.decode_items.400" (Staged.stage (fun () -> Tstore.decode_items deduped));
      Test.make ~name:"store.range_scan" (Staged.stage (fun () -> Store.range store ~lo:"d" ~hi:"f"));
      Test.make ~name:"tstore.items_of_triple" (Staged.stage (fun () ->
          Tstore.items_of_triple ~qgrams:false
            (Triple.make ~oid:"a12" ~attr:"confname" (Value.S "ICDE 2006"))));
    ]

let run () =
  Common.section "Microbenchmarks (Bechamel)"
    "CPU cost of the local building blocks (the simulation experiments above \
     measure network cost)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with Some [ e ] -> e | _ -> Float.nan
      in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols_result) in
      rows := (name, ns, r2) :: !rows)
    results;
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !rows in
  Common.print_table
    [ "benchmark"; "ns/run"; "r^2" ]
    (List.map (fun (n, ns, r2) -> [ n; Printf.sprintf "%.0f" ns; Printf.sprintf "%.3f" r2 ]) sorted)
