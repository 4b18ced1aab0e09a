(* query_mix: the read path. A preloaded 256-peer deployment whose
   optimizer statistics come from four gossip rounds answers 500 VQL
   queries from one closed-loop client, round-robin over 8 origins.
   Parse, plan, execution, ranking and the result cache do the work;
   there are no writes. The shape counts are fixed; their order and
   constants follow the seed. Constants are drawn Zipf(1.1) from the
   dataset's values, so hot ones repeat at an origin and caching shows.
   The client thinks 250 ms between queries, so cached entries also age
   out: the cache's 30 s TTL matters, not only its capacity. Top-N ranks
   person attributes only: a DESC top-N over all publication years
   fetches the whole region, and whether the seed made it a hot constant
   swung messages per query threefold. *)

module Rng = Unistore_util.Rng
module Zipf = Unistore_util.Zipf
module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple
module Publications = Unistore_workload.Publications
module Namegen = Unistore_workload.Namegen
module Parser = Unistore_vql.Parser
module Engine = Unistore_qproc.Engine
module Binding = Unistore_qproc.Binding

let peers = 256
let authors = 200
let queries = 500
let n_origins = 8
let gossip_rounds = 4
let think_ms = 250.0

(* Queries of each shape per 1,000; [Metric.shapes] lists them. *)
let mix =
  [
    ("point", 300);
    ("range", 200);
    ("join", 150);
    ("topn", 150);
    ("edist", 100);
    ("skyline", 50);
    ("skyline_mutant", 50);
  ]

type query = { shape : string; text : string; strategy : Unistore.strategy }

let skyline_text series =
  Printf.sprintf
    "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) (?a,'num_of_pubs',?cnt) \
     (?a,'has_published',?title) (?p,'title',?title) (?p,'published_in',?conf) \
     (?c,'confname',?conf) (?c,'series',?sr) FILTER edist(?sr,'%s')<3 } ORDER BY SKYLINE OF \
     ?age MIN, ?cnt MAX"
    series

(* The distinct values of [attr] in a seeded order: the Zipf ranks. *)
let values (ds : Publications.dataset) attr rng =
  let vs =
    List.filter_map
      (fun (tr : Triple.t) -> if String.equal tr.Triple.attr attr then Some tr.Triple.value else None)
      ds.Publications.triples
    |> List.sort_uniq Value.compare |> Array.of_list
  in
  Rng.shuffle rng vs;
  vs

let zipf_pick rng pool =
  let z = Zipf.create ~n:(Array.length pool) ~s:1.1 in
  fun () -> pool.(Zipf.sample z rng - 1)

let str v = Option.value ~default:"" (Value.as_string v)
let int v = Option.value ~default:0 (Value.as_int v)

let generate_queries (ds : Publications.dataset) rng ~n =
  let name = zipf_pick rng (values ds "name" rng) in
  let age = zipf_pick rng (values ds "age" rng) in
  let year = zipf_pick rng (values ds "year" rng) in
  let typo_pool = Array.map (fun v -> Namegen.typo rng (str v)) (values ds "name" rng) in
  let typo = zipf_pick rng typo_pool in
  let topn_pool =
    Array.of_list
      (List.concat_map
         (fun attr ->
           List.concat_map
             (fun dir -> List.map (fun n -> (attr, dir, n)) [ 3; 5; 10; 20 ])
             [ "ASC"; "DESC" ])
         [ "age"; "num_of_pubs" ])
  in
  Rng.shuffle rng topn_pool;
  let topn = zipf_pick rng topn_pool in
  let series_pool = Array.of_list ds.Publications.series_pool in
  Rng.shuffle rng series_pool;
  let series = zipf_pick rng series_pool in
  let shapes =
    Array.of_list
      (List.concat_map
         (fun (shape, per_1000) -> List.init (max 1 (per_1000 * n / 1000)) (fun _ -> shape))
         mix)
  in
  Rng.shuffle rng shapes;
  Array.to_list shapes
  |> List.map (fun shape ->
         let q text = { shape; text; strategy = Unistore.Centralized } in
         match shape with
         | "point" ->
           q
             (Printf.sprintf "SELECT ?a,?age WHERE { (?a,'name','%s') (?a,'age',?age) }"
                (str (name ())))
         | "range" ->
           let lo = int (year ()) in
           q
             (Printf.sprintf "SELECT ?p,?y WHERE { (?p,'year',?y) FILTER ?y >= %d AND ?y <= %d }"
                lo
                (lo + Rng.int rng 3))
         | "join" ->
           q
             (Printf.sprintf
                "SELECT ?name,?title WHERE { (?a,'age',%d) (?a,'name',?name) \
                 (?a,'has_published',?title) }"
                (int (age ())))
         | "topn" ->
           let attr, dir, n = topn () in
           q
             (Printf.sprintf "SELECT ?a,?v WHERE { (?a,'%s',?v) } ORDER BY ?v %s LIMIT %d" attr
                dir n)
         | "edist" ->
           q
             (Printf.sprintf "SELECT ?a,?n WHERE { (?a,'name',?n) FILTER edist(?n,'%s') <= 2 }"
                (typo ()))
         | "skyline" -> q (skyline_text (series ()))
         | _ -> { (q (skyline_text (series ()))) with strategy = Unistore.Mutant })

type answer = { q : query; report : (Engine.report, string) result }

(* Queries whose answer differs from the reference; one reference
   evaluation per distinct query text. *)
let wrong_answers (ds : Publications.dataset) answers =
  let reference = Ref_eval.create ds.Publications.triples in
  let verdicts = Hashtbl.create 256 in
  List.fold_left
    (fun acc a ->
      match a.report with
      | Error _ -> acc + 1
      | Ok r when not r.Engine.complete -> acc + 1
      | Ok r ->
        let key = a.q.text ^ "\x00" ^ String.concat "\x01" (List.map Binding.fingerprint r.Engine.rows) in
        let ok =
          match Hashtbl.find_opt verdicts key with
          | Some ok -> ok
          | None ->
            let ok = Ref_eval.matches reference (Parser.parse_exn a.q.text) r.Engine.rows in
            Hashtbl.replace verdicts key ok;
            ok
        in
        if ok then acc else acc + 1)
    0 answers

let answer_line a =
  match a.report with
  | Error e -> "error " ^ e
  | Ok r ->
    Printf.sprintf "%s %b %.17g %s" a.q.shape r.Engine.complete r.Engine.latency
      (String.concat "," (Ref_eval.fingerprints r.Engine.rows))

let mean = function [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Per-shape CPU and simulated time, rows touched per result row and
   plan bytes shipped; then parse and plan times over every query text,
   measured after the timed phase so they stay out of it. *)
let query_layers t answers =
  let reports = List.filter_map (fun a -> Result.to_option a.report) answers in
  let shape_metrics =
    List.concat_map
      (fun shape ->
        let of_shape = List.filter (fun a -> String.equal a.q.shape shape) answers in
        let lat =
          List.filter_map
            (fun a -> Option.map (fun r -> r.Engine.latency) (Result.to_option a.report))
            of_shape
        in
        [
          ( "qproc.cpu_ms." ^ shape,
            1000.0
            *. Metric.ratio (Span.total_cpu ("query." ^ shape)) (float_of_int (List.length of_shape)) );
          ("qproc.sim_ms." ^ shape, mean lat);
        ])
      Metric.shapes
  in
  let touched =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc (s : Unistore_qproc.Exec.step_trace) -> acc + s.rows_in + s.actual_card)
          acc r.Engine.traces)
      0 reports
  in
  let rows = List.fold_left (fun acc r -> acc + List.length r.Engine.rows) 0 reports in
  let shipped = List.fold_left (fun acc r -> acc + r.Engine.bytes_shipped) 0 reports in
  let n = List.length answers in
  List.iteri
    (fun i a ->
      ignore (Span.record ~query:i "vql.parse" (fun () -> Parser.parse a.q.text));
      ignore
        (Span.record ~query:i "qproc.explain" (fun () ->
             Unistore.explain t ~origin:(i mod n_origins) a.q.text)))
    answers;
  shape_metrics
  @ [
      ("qproc.rows_touched_per_row", Metric.ratio_i touched rows);
      ("qproc.bytes_shipped_per_query", Metric.ratio_i shipped n);
      ("vql.parse_us", 1e6 *. Metric.ratio (Span.total_cpu "vql.parse") (float_of_int n));
      ("qproc.plan_us", 1e6 *. Metric.ratio (Span.total_cpu "qproc.explain") (float_of_int n));
    ]

let run (ctx : Deploy.ctx) =
  let rng = Rng.create ctx.Deploy.seed in
  let data_rng = Rng.split rng and query_rng = Rng.split rng and store_rng = Rng.split rng in
  let (ds, t, stream), setup =
    Deploy.cpu (fun () ->
        let ds = Deploy.generate data_rng ~authors:(Deploy.scaled ctx authors) in
        let t =
          Deploy.create ~sample_keys:(Publications.sample_keys ds)
            { Unistore.default_config with Unistore.peers }
        in
        ignore (Deploy.load t ds.Publications.tuples);
        Span.record "core.gossip" (fun () ->
            for _ = 1 to gossip_rounds do
              Unistore.gossip_stats_round t
            done);
        (ds, t, generate_queries ds query_rng ~n:(Deploy.scaled ctx queries)))
  in
  let origins = Array.init n_origins (fun i -> i * peers / n_origins) in
  Unistore.reset_metrics t;
  if ctx.Deploy.traced then begin
    Deploy.watch_pending t;
    ignore (Unistore.start_trace t)
  end;
  let answers, p =
    Deploy.phase t (fun () ->
        List.mapi
          (fun i q ->
            Unistore_sim.Sim.run_for (Unistore.sim t) ~duration:think_ms;
            let report =
              Span.record ~query:i ("query." ^ q.shape) (fun () ->
                  Unistore.query t ~origin:origins.(i mod n_origins) ~strategy:q.strategy q.text)
            in
            { q; report })
          stream)
  in
  Unistore.stop_trace t;
  let heap_mb = Deploy.live_heap_mb t in
  let n = List.length answers in
  (* Latency percentiles are over the queries that went to the network:
     a query the origin's cache answers whole takes 0 ms, and with about
     30% of those the median would fall wherever the hit rate put it. *)
  let lat =
    List.filter_map
      (fun a ->
        match a.report with Ok r when r.Engine.latency > 0.0 -> Some r.Engine.latency | _ -> None)
      answers
  in
  let sim =
    [
      ("msgs_per_op", Metric.ratio_i p.Deploy.msgs n);
      ("bytes_per_op", Metric.ratio_i (Layers.counter t "net.bytes.sent") n);
      ("sim_p50_ms", Metric.percentile lat 50.0);
      ("sim_p99_ms", Metric.percentile lat 99.0);
      (* Queries per simulated second the client spends waiting for
         answers, think time excluded. *)
      ( "sim_ops_per_s",
        1000.0 *. Metric.ratio (float_of_int n) (p.Deploy.sim_ms -. (float_of_int n *. think_ms)) );
    ]
  in
  let layers =
    if ctx.Deploy.traced then begin
      let spans = List.fold_left (fun acc s -> acc +. Span.total_cpu ("query." ^ s)) 0.0 Metric.shapes in
      Printf.printf "query_mix: the per-shape query spans cover %.1f%% of the timed phase's CPU\n"
        (100.0 *. Metric.ratio spans p.Deploy.cpu_s);
      let common =
        Layers.common t p ~ops:n ~data_items:(List.length ds.Publications.triples) ~rng:store_rng
          ~storm_events:1_000_000
      in
      common @ query_layers t answers
    end
    else []
  in
  {
    Deploy.setups = [ setup ];
    ops = n;
    timed_cpu = p.Deploy.cpu_s;
    heap_mb;
    lat;
    sim;
    layers;
    attempted = n;
    failed = (if ctx.Deploy.check then wrong_answers ds answers else 0);
    digest = Deploy.digest_of (List.map answer_line answers @ Deploy.fmt_metrics sim);
  }
