(* E14: decentralized construction and overlay merging.

   Paper (§2): the trie "is constructed by pair-wise interactions between
   nodes without central coordination nor global knowledge"; P-Grid
   "enables the merging of two, formerly independent, overlays in a
   parallel fashion". §4 demonstrates people joining "a running (or even
   one built from scratch) P-Grid overlay".

   We build overlays purely by simulated pairwise exchanges and track
   convergence (depth, coverage, usable lookups, message cost) as rounds
   progress; then we build two isolated overlays and merge them. *)

module Rng = Unistore_util.Rng
module Latency = Unistore_sim.Latency
module Sim = Unistore_sim.Sim
module Config = Unistore_pgrid.Config
module Build = Unistore_pgrid.Build
module Overlay = Unistore_pgrid.Overlay
module Store = Unistore_pgrid.Store
module Node = Unistore_pgrid.Node

let mk_items rng id count =
  List.init count (fun j ->
      let w = Unistore_workload.Namegen.word rng in
      { Store.key = w; item_id = Printf.sprintf "i%d-%d" id j; payload = w; version = 0 })

let lookup_success ov ~n ~items =
  (* Can a random peer find a random preloaded item? *)
  let rng = Rng.create 991 in
  let ok = ref 0 in
  let total = 80 in
  for _ = 1 to total do
    let it : Store.item = Rng.pick_list rng items in
    let origin = Rng.int rng n in
    let r =
      Common.await (Overlay.sim ov) (fun k -> Overlay.lookup ov ~origin ~key:it.Store.key ~k)
    in
    if
      r.Overlay.complete
      && List.exists (fun (x : Store.item) -> String.equal x.Store.item_id it.Store.item_id)
           r.Overlay.items
    then incr ok
  done;
  float_of_int !ok /. float_of_int total

let build ~n ~rounds ~groups ~merge_at ~seed =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let latency = Latency.create Latency.Lan ~n ~rng in
  let data_rng = Rng.create (seed + 1) in
  let initial_data = List.init n (fun i -> (i, mk_items data_rng i 8)) in
  let all_items = List.concat_map snd initial_data in
  let ov, report =
    Build.bootstrap sim ~latency ~rng ~config:Config.default ~n ~initial_data ~rounds
      ~split_threshold:12 ~groups ~merge_at ()
  in
  (ov, report, all_items)

let run () =
  Common.section "E14: decentralized construction and overlay merging"
    "\"constructed by pair-wise interactions between nodes without central \
     coordination nor global knowledge\"; \"merging of two, formerly \
     independent, overlays\"";
  Common.subsection "A: convergence of the pairwise-exchange bootstrap (32 peers)";
  let rows = ref [] in
  List.iter
    (fun rounds ->
      let ov, report, items = build ~n:32 ~rounds ~groups:1 ~merge_at:0 ~seed:151 in
      let msgs = Unistore_sim.Net.total_sent (Overlay.net ov) in
      rows :=
        [
          Common.i rounds;
          Common.i report.Build.final_depth;
          (if report.Build.coverage_ok then "yes" else "NO");
          Common.pct (lookup_success ov ~n:32 ~items);
          Common.i msgs;
        ]
        :: !rows)
    [ 5; 10; 20; 40 ];
  Common.print_table
    [ "rounds"; "trie depth"; "coverage"; "lookup success"; "total msgs" ]
    (List.rev !rows);
  Common.subsection "B: merging two independently built overlays (16 + 16 peers)";
  let rows = ref [] in
  List.iter
    (fun (label, rounds, merge_at) ->
      let ov, report, items = build ~n:32 ~rounds ~groups:2 ~merge_at ~seed:152 in
      rows :=
        [
          label;
          Common.i report.Build.final_depth;
          (if report.Build.coverage_ok then "yes" else "NO");
          Common.pct (lookup_success ov ~n:32 ~items);
        ]
        :: !rows)
    [
      ("isolated only (no merge)", 20, 1000);
      ("20 isolated + 10 merged", 30, 20);
      ("20 isolated + 40 merged", 60, 20);
    ];
  Common.print_table [ "schedule"; "trie depth"; "coverage"; "lookup success" ] (List.rev !rows);
  Printf.printf
    "\nverdict: a usable trie self-assembles from random pairwise meetings alone; \
     two overlays built in isolation share consistent split boundaries, so a few \
     cross-group exchange rounds give either side access to the other's data\n"
