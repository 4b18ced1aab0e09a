(* E2: lookup scaling with network size.

   Paper (§2, §3): structured overlays "offer logarithmic search
   complexity in the number of nodes"; "for each physical operator ... we
   can determine worst-case guarantees (almost all are logarithmic)".

   We measure cold exact-match routing: hops/messages/latency for
   N = 16..1024 peers with a fixed dataset and the caching subsystem off,
   so no routing shortcut or result cache answers for the trie. Mean hops
   are fitted against log2(N). The verdict is computed from the rows: the
   fit must have R^2 >= 0.8 and a positive slope, and every row's p99
   hops must stay within the trie depth (the worst-case guarantee of
   prefix routing); otherwise the experiment exits non-zero. *)

module Rng = Unistore_util.Rng
module Stats = Unistore_util.Stats
module Value = Unistore.Value
module Triple = Unistore.Triple
module Tstore = Unistore_triple.Tstore
module Publications = Unistore_workload.Publications

let run () =
  Common.section "E2: logarithmic lookup scaling (N = 16 .. 1024)"
    "\"logarithmic search complexity in the number of nodes\"; worst-case \
     guarantees are logarithmic";
  let sizes = [ 16; 32; 64; 128; 256; 512; 1024 ] in
  let rows = ref [] in
  let fit_points = ref [] in
  let over_depth = ref [] in
  List.iter
    (fun peers ->
      let store, ds = Common.build_pubs ~peers ~authors:40 ~qgrams:false ~cache:false ~seed:21 () in
      let ts = Unistore.tstore store in
      let rng = Rng.create (1000 + peers) in
      (* Look up known A#v keys from random origins. *)
      let samples = Rng.sample rng 100 ds.Publications.triples in
      let hops = ref [] and msgs = ref [] and lats = ref [] in
      let incomplete = ref 0 in
      List.iter
        (fun (tr : Triple.t) ->
          let origin = Rng.int rng peers in
          let (_, (r : Unistore_triple.Dht.result)), sent =
            Common.await_metered (Tstore.dht ts) (fun k ->
                Tstore.by_attr_value ts ~origin ~attr:tr.Triple.attr tr.Triple.value ~k)
          in
          if not r.complete then incr incomplete;
          hops := float_of_int r.hops :: !hops;
          msgs := float_of_int sent :: !msgs;
          lats := r.latency :: !lats)
        samples;
      let h = Stats.summarize !hops and m = Stats.summarize !msgs and l = Stats.summarize !lats in
      let depth =
        match Unistore.pgrid store with
        | Some ov -> Unistore_pgrid.Overlay.depth ov
        | None -> 0
      in
      fit_points := (log (float_of_int peers) /. log 2.0, h.Stats.mean) :: !fit_points;
      if h.Stats.p99 > float_of_int depth then over_depth := peers :: !over_depth;
      rows :=
        [
          Common.i peers;
          Common.i depth;
          Common.f2 h.Stats.mean;
          Common.f1 h.Stats.p99;
          Common.f2 m.Stats.mean;
          Common.f1 l.Stats.mean;
          Common.i !incomplete;
        ]
        :: !rows)
    sizes;
  Common.print_table
    [ "peers"; "depth"; "hops_mean"; "hops_p99"; "msgs_mean"; "lat_ms"; "failed" ]
    (List.rev !rows);
  let slope, intercept, r2 = Stats.linear_fit !fit_points in
  Printf.printf "\nfit: mean_hops = %.3f * log2(N) + %.3f   (R^2 = %.3f)\n" slope intercept r2;
  Printf.printf "hops_p99 <= depth in every row: %s\n"
    (match !over_depth with
    | [] -> "yes"
    | ns -> "NO, at " ^ String.concat ", " (List.rev_map string_of_int ns) ^ " peers");
  let reproduced = r2 >= 0.8 && slope > 0.0 && !over_depth = [] in
  Printf.printf "verdict: %s\n"
    (if reproduced then
       "cold routing hops grow logarithmically and stay within the trie depth, as claimed"
     else "NOT reproduced: the fit or the depth bound fails");
  if not reproduced then exit 1
