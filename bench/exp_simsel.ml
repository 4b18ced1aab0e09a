(* E7: similarity selection — q-gram index vs. flooding.

   Paper (§2): "in [6] we introduced a q-gram index (q-gram: a substring
   of fixed length q) in order to be able to process string similarity
   efficiently." (Karnstedt et al., NetDB'06)

   Queries of the form edist(title, pattern) <= 2 are answered (a) via
   the distributed q-gram index (parallel exact lookups of the pattern's
   q-grams + local count filter + verification) and (b) by flooding every
   peer. The q-gram cost scales with pattern length x log(N); flooding
   with N. The verdict is computed from the rows: at every size both
   paths must find the same titles, and the optimizer must pick the path
   that cost fewer messages as measured; the run exits 1 otherwise. *)

module Rng = Unistore_util.Rng
module Value = Unistore.Value
module Triple = Unistore.Triple
module Tstore = Unistore_triple.Tstore
module Strdist = Unistore_util.Strdist
module Cost = Unistore_qproc.Cost
module Namegen = Unistore_workload.Namegen
module Publications = Unistore_workload.Publications

let run () =
  Common.section "E7: string similarity via the distributed q-gram index"
    "\"a q-gram index in order to be able to process string similarity \
     efficiently\" (ref [6])";
  let rows = ref [] in
  List.iter
    (fun peers ->
      let store, ds = Common.build_pubs ~peers ~authors:50 ~typo_rate:0.2 ~seed:71 () in
      let ts = Unistore.tstore store in
      let rng = Rng.create 72 in
      let titles =
        List.filter_map
          (fun (tr : Triple.t) ->
            if String.equal tr.Triple.attr "title" then Value.as_string tr.Triple.value else None)
          ds.Publications.triples
      in
      let patterns =
        List.map (fun t -> Namegen.typo rng (Namegen.typo rng t)) (Rng.sample rng 5 titles)
      in
      let d = 2 in
      let oracle pattern =
        List.length
          (List.filter
             (fun (tr : Triple.t) ->
               String.equal tr.Triple.attr "title"
               &&
               match Value.as_string tr.Triple.value with
               | Some s -> Strdist.within_distance pattern s d
               | None -> false)
             ds.Publications.triples)
      in
      let q_msgs = ref 0 and f_msgs = ref 0 in
      let q_found = ref 0 and f_found = ref 0 and expect = ref 0 in
      List.iter
        (fun pattern ->
          expect := !expect + oracle pattern;
          let (found, _), msgs =
            Common.await_metered (Tstore.dht ts) (fun k ->
                Tstore.similar ts ~origin:4 ~attr:(Some "title") ~pattern ~d ~k)
          in
          q_msgs := !q_msgs + msgs;
          q_found := !q_found + List.length found;
          let (found, _), msgs =
            Common.await_metered (Tstore.dht ts) (fun k ->
                Tstore.scan ts ~origin:4 ~k ~pred:(fun tr ->
                    String.equal tr.Triple.attr "title"
                    &&
                    match Value.as_string tr.Triple.value with
                    | Some s -> Strdist.within_distance pattern s d
                    | None -> false))
          in
          f_msgs := !f_msgs + msgs;
          f_found := !f_found + List.length found)
        patterns;
      let n = List.length patterns in
      (* Which side does the cost model pick? *)
      let env = Cost.env_of_dht (Unistore.dht store) ~replication:2 in
      let stats = Unistore.stats store in
      let sim_est =
        Cost.estimate_access env stats (Cost.ASim (Some "title", List.hd patterns, d))
      in
      let flood_est = Cost.estimate_access env stats Cost.ABroadcast in
      let picks_qgram = Cost.objective sim_est < Cost.objective flood_est in
      rows := (peers, !expect, (!q_found, !q_msgs / n), (!f_found, !f_msgs / n), picks_qgram) :: !rows)
    [ 64; 256; 1024 ];
  let rows = List.rev !rows in
  Common.print_table
    [ "peers"; "qgram:recall"; "qgram:msgs"; "flood:recall"; "flood:msgs"; "optimizer picks" ]
    (List.map
       (fun (peers, expect, (qf, qm), (ff, fm), picks_qgram) ->
         [
           Common.i peers;
           Printf.sprintf "%d/%d" qf expect;
           Common.i qm;
           Printf.sprintf "%d/%d" ff expect;
           Common.i fm;
           (if picks_qgram then "qgram" else "flood");
         ])
       rows);
  let wrong =
    List.filter_map
      (fun (peers, _, (qf, qm), (ff, fm), picks_qgram) ->
        if qf <> ff then Some (Printf.sprintf "%d peers: recall differs" peers)
        else if qm <> fm && picks_qgram <> (qm < fm) then
          Some (Printf.sprintf "%d peers: the optimizer picks the dearer path" peers)
        else None)
      rows
  in
  Common.subsection "completeness guard";
  let store, _ = Common.build_pubs ~peers:16 ~authors:5 ~seed:73 () in
  let ts = Unistore.tstore store in
  Printf.printf "qgram_applicable(\"ICDE\", d=2) = %b (falls back to flooding)\n"
    (Tstore.qgram_applicable ts ~pattern:"ICDE" ~d:2);
  Printf.printf "qgram_applicable(\"similarity queries\", d=2) = %b\n"
    (Tstore.qgram_applicable ts ~pattern:"similarity queries" ~d:2);
  let qgram_wins = List.filter (fun (_, _, (_, qm), (_, fm), _) -> qm < fm) rows in
  Printf.printf "\nverdict: %s\n"
    (if wrong = [] then
       Printf.sprintf
         "at equal recall the q-gram index costs fewer messages than flooding at %d of %d sizes, \
          and the optimizer picks the cheaper path at every size: reproduced"
         (List.length qgram_wins) (List.length rows)
     else "NOT reproduced: " ^ String.concat "; " wrong);
  if wrong <> [] then exit 1
