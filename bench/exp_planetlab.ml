(* E3: wide-area query answer times at 400 peers.

   Paper (§4): "We will show that even with up to 400 PlanetLab nodes
   query answer times are still only a couple of seconds."

   We deploy 400 simulated peers under the PlanetLab latency model
   (20-300+ ms one-way, log-normal jitter) and measure simulated answer
   times of (a) the paper's 8-pattern skyline query and (b) a mix of
   simpler queries, under both execution strategies. The verdict reads
   the table's paper-skyline rows: both must be complete and answer
   within [couple_of_seconds_ms]; the run exits 1 otherwise. *)

module Stats = Unistore_util.Stats
module Latency = Unistore_sim.Latency
module Engine = Unistore_qproc.Engine

let paper_query =
  "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) \
   (?a,'num_of_pubs',?cnt) (?a,'has_published',?title) (?p,'title',?title) \
   (?p,'published_in',?conf) (?c,'confname',?conf) (?c,'series',?sr) \
   FILTER edist(?sr,'ICDE')<3 } ORDER BY SKYLINE OF ?age MIN, ?cnt MAX"

(* "Only a couple of seconds", read generously: at most 3 s. *)
let couple_of_seconds_ms = 3_000.0

let simple_queries =
  [
    ("point", "SELECT ?a WHERE { (?a,'series',?s) FILTER ?s = 'ICDE' }");
    ("range", "SELECT ?a, ?y WHERE { (?p,'year',?y) (?p,'title',?a) FILTER ?y >= 2002 AND ?y < 2005 }");
    ( "join3",
      "SELECT ?n, ?t WHERE { (?a,'name',?n) (?a,'has_published',?t) (?p,'title',?t) }" );
    ( "topn",
      "SELECT ?n, ?age WHERE { (?a,'name',?n) (?a,'age',?age) } ORDER BY ?age ASC LIMIT 5" );
  ]

let run () =
  Common.section "E3: 400 peers under the PlanetLab latency model"
    "\"even with up to 400 PlanetLab nodes query answer times are still only a \
     couple of seconds\"";
  let store, _ds =
    Common.build_pubs ~peers:400 ~authors:60 ~latency:Latency.Planetlab ~seed:33 ()
  in
  Printf.printf "(one-way latency: 20-300+ms, heavy tail; %d peers)\n\n"
    (List.length (Unistore.alive_peers store));
  let runs =
    List.concat_map
      (fun (name, src) ->
        List.map
          (fun strategy -> (name, strategy, Common.run_query_exn store ~origin:7 ~strategy src))
          [ Unistore.Centralized; Unistore.Mutant ])
      (simple_queries @ [ ("paper-skyline", paper_query) ])
  in
  Common.print_table
    [ "query"; "strategy"; "rows"; "msgs"; "answer time"; "complete" ]
    (List.map
       (fun (name, strategy, (r : Engine.report)) ->
         [
           name;
           Format.asprintf "%a" Engine.pp_strategy strategy;
           Common.i (List.length r.rows);
           Common.i r.messages;
           Printf.sprintf "%.2f s" (r.latency /. 1000.0);
           (if r.complete then "yes" else "NO");
         ])
       runs);
  let flagship = List.filter (fun (name, _, _) -> String.equal name "paper-skyline") runs in
  let reproduced =
    List.for_all
      (fun (_, _, (r : Engine.report)) -> r.complete && r.latency <= couple_of_seconds_ms)
      flagship
  in
  Printf.printf "\nverdict: from origin 7 the paper's flagship query answers in %s (limit %.0f s): %s\n"
    (String.concat " and "
       (List.map
          (fun (_, strategy, (r : Engine.report)) ->
            Format.asprintf "%.2f s %a" (r.latency /. 1000.0) Engine.pp_strategy strategy)
          flagship))
    (couple_of_seconds_ms /. 1000.0)
    (if reproduced then "a couple of seconds, as claimed"
     else "NOT reproduced: incomplete or slower than the claim");
  if not reproduced then exit 1
