(* E4: operation at 1000+ peers.

   Paper (§3): "we exploit powerful features of DHTs to create a robust,
   scalable and reliable massively distributed (up to 1000 peers and
   more) storage".

   A 1024-peer deployment executes a mixed VQL workload; we report
   completion, message and latency distributions. The run exits 1 if
   any query's answer is incomplete. *)

module Stats = Unistore_util.Stats
module Engine = Unistore_qproc.Engine

let workload =
  [
    "SELECT ?a WHERE { (?a,'series',?s) FILTER ?s = 'VLDB' }";
    "SELECT ?n WHERE { (?a,'name',?n) (?a,'age',?v) FILTER ?v >= 30 AND ?v < 40 }";
    "SELECT ?t, ?y WHERE { (?p,'title',?t) (?p,'year',?y) FILTER ?y >= 2004 }";
    "SELECT ?n, ?c WHERE { (?a,'name',?n) (?a,'num_of_pubs',?c) } ORDER BY ?c DESC LIMIT 10";
    "SELECT ?n, ?age, ?c WHERE { (?a,'name',?n) (?a,'age',?age) (?a,'num_of_pubs',?c) } \
     ORDER BY SKYLINE OF ?age MIN, ?c MAX";
    "SELECT ?a, ?attr WHERE { (?a,?attr,'databases') }";
    "SELECT ?n, ?t WHERE { (?a,'name',?n) (?a,'has_published',?t) (?p,'title',?t) \
     (?p,'published_in',?cn) (?c,'confname',?cn) (?c,'series',?sr) FILTER ?sr = 'ICDE' }";
  ]

let run () =
  Common.section "E4: a 1024-peer universal storage"
    "\"massively distributed (up to 1000 peers and more) storage\"";
  let store, ds = Common.build_pubs ~peers:1024 ~authors:80 ~seed:55 () in
  Printf.printf "deployment: 1024 peers, %d triples (plus q-gram index entries)\n\n"
    (List.length ds.Unistore_workload.Publications.triples);
  let rows = ref [] in
  let latencies = ref [] and messages = ref [] in
  let incomplete = ref [] in
  List.iteri
    (fun idx src ->
      let r = Common.run_query_exn store ~origin:(idx * 131 mod 1024) src in
      if not r.Engine.complete then incomplete := Printf.sprintf "Q%d" (idx + 1) :: !incomplete;
      latencies := r.Engine.latency :: !latencies;
      messages := float_of_int r.Engine.messages :: !messages;
      rows :=
        [
          Printf.sprintf "Q%d" (idx + 1);
          Common.i (List.length r.Engine.rows);
          Common.i r.Engine.messages;
          Common.f1 r.Engine.latency;
          (if r.Engine.complete then "yes" else "NO");
        ]
        :: !rows)
    workload;
  Common.print_table [ "query"; "rows"; "msgs"; "latency_ms"; "complete" ] (List.rev !rows);
  let l = Stats.summarize !latencies and m = Stats.summarize !messages in
  Printf.printf "\nlatency:  %s\n" (Format.asprintf "%a" Stats.pp_summary l);
  Printf.printf "messages: %s\n" (Format.asprintf "%a" Stats.pp_summary m);
  if !incomplete = [] then print_endline "verdict: all queries complete at 1024 peers"
  else begin
    Printf.printf "verdict: NOT reproduced: incomplete answers on %s\n"
      (String.concat ", " (List.rev !incomplete));
    exit 1
  end
