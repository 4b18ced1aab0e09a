(* E-churn: query recall and overhead under crash/revive churn.

   Robust execution (timeout retries with exponential backoff and
   jitter, replica failover) runs against churn rates 0%, 10%, 30%.
   Every cell is a fresh deployment with the same seed and dataset;
   only the injected fault scenario differs, and it draws its randomness
   from its own seed.

   Recall is measured against the 0%-churn run: per query, the fraction
   of the reference row multiset that came back. The 0%-churn run
   injects no faults, and it must stay fault-free end to end — no
   retry, no give-up, no partial result — so the retry machinery costs
   nothing when nothing fails; that is asserted, not assumed. No query
   may hang: every query's timeout is in the simulator queue from the
   moment its first request leaves, so the run terminating at all is
   the liveness check.

   Writes BENCH_churn.json; `make bench-smoke` runs the small variant
   (churn-smoke) without touching the file. *)

module Metrics = Unistore_obs.Metrics
module Json = Unistore_obs.Json
module Binding = Unistore_qproc.Binding

let out_file = "BENCH_churn.json"

(* One exact lookup, one shower range, one chain join over two shower
   scans, one bind-join probe round — the access paths churn can hurt. *)
let workload =
  [
    "SELECT ?a WHERE { (?a,'num_of_pubs',2) }";
    "SELECT ?a,?g WHERE { (?a,'age',?g) FILTER ?g >= 30 FILTER ?g <= 55 }";
    "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) }";
    "SELECT ?a,?att,?v WHERE { (?a,'num_of_pubs',3) (?a,?att,?v) }";
  ]

(* Query origin; protected from the killer so the client itself never
   dies mid-query. *)
let origin = 0

let row_set (r : Unistore.Report.report) =
  List.sort compare (List.map Binding.fingerprint r.Unistore.Report.rows)

type cell = {
  rate : float;
  per_query_rows : string list list;  (** sorted fingerprints, per workload query *)
  messages : int;
  latency : float;
  avg_completeness : float;
  crashes : int;
  revives : int;
  retries : int;
  failovers : int;
  giveups : int;
  partials : int;
}

(* Churn cadence: fast waves and short outages relative to the request
   timeout, so a retried request usually meets the victim revived. With [down_ms = interval_ms],
   the steady-state fraction of dead peers stays close to the wave rate
   (rate r kills r*(1-d) of the population per interval and each victim
   is down for one interval, so d = r*(1-d)), which is what "r churn"
   should mean. Waves come faster than a healthy query finishes, so
   every query runs through at least one kill wave. *)
let interval_ms = 10.0
let down_ms = 10.0

let run_cell ~peers ~authors ~rounds ~fault_seed rate =
  let store, _ds = Common.build_pubs ~peers ~authors ~cache:Unistore.no_cache () in
  let m = Unistore.metrics store in
  Metrics.clear m;
  let faults =
    if rate > 0.0 then
      Unistore.inject_faults store
        (Unistore.Faults.spec ~seed:fault_seed ~duration_ms:600_000.0
           ~churn:{ Unistore.Faults.rate; interval_ms; down_ms }
           ~protected:[ origin ] ())
    else None
  in
  let t0 = Unistore.now store in
  let covs = ref [] in
  let per_query_rows =
    List.concat
      (List.init rounds (fun _ ->
           List.map
             (fun vql ->
               let r = Common.run_query_exn store ~origin vql in
               covs := r.Unistore.Report.completeness :: !covs;
               row_set r)
             workload))
  in
  let latency = Unistore.now store -. t0 in
  let crashes, revives =
    match faults with
    | Some h -> (Unistore.Faults.crashes h, Unistore.Faults.revives h)
    | None -> (0, 0)
  in
  {
    rate;
    per_query_rows;
    messages = Metrics.counter m "net.sent";
    latency;
    avg_completeness =
      (match !covs with
      | [] -> 1.0
      | cs -> List.fold_left ( +. ) 0.0 cs /. float_of_int (List.length cs));
    crashes;
    revives;
    retries = Metrics.counter m "retry.attempt";
    failovers = Metrics.counter m "retry.failover";
    giveups = Metrics.counter m "retry.giveup";
    partials = Metrics.counter m "fault.partial";
  }

(* Multiset intersection size of two sorted lists. *)
let rec inter a b =
  match (a, b) with
  | [], _ | _, [] -> 0
  | x :: xs, y :: ys ->
    let c = compare (x : string) y in
    if c = 0 then 1 + inter xs ys else if c < 0 then inter xs b else inter a ys

(* Recall of [cell] against the 0%-churn reference: matched reference
   rows / reference rows, over the whole workload. *)
let recall ~reference cell =
  let matched, total =
    List.fold_left2
      (fun (m, t) ref_rows rows -> (m + inter ref_rows rows, t + List.length ref_rows))
      (0, 0) reference.per_query_rows cell.per_query_rows
  in
  if total = 0 then 1.0 else float_of_int matched /. float_of_int total

let cell_json ~reference c =
  Json.Obj
    [
      ("churn_rate", Json.Float c.rate);
      ("recall", Json.Float (recall ~reference c));
      ("rows", Json.Int (List.fold_left (fun a r -> a + List.length r) 0 c.per_query_rows));
      ("messages", Json.Int c.messages);
      ("latency_ms", Json.Float c.latency);
      ("avg_completeness", Json.Float c.avg_completeness);
      ("crashes", Json.Int c.crashes);
      ("revives", Json.Int c.revives);
      ("retries", Json.Int c.retries);
      ("failovers", Json.Int c.failovers);
      ("giveups", Json.Int c.giveups);
      ("partial_results", Json.Int c.partials);
    ]

let measure ~peers ~authors ~rounds ~fault_seed ~rates =
  let cells = List.map (run_cell ~peers ~authors ~rounds ~fault_seed) rates in
  let reference = List.hd cells in
  Common.print_table
    [ "churn"; "recall"; "msgs"; "latency"; "crashes"; "retries"; "failovers"; "partials" ]
    (List.map
       (fun c ->
         [
           Common.pct c.rate; Common.f2 (recall ~reference c); Common.i c.messages;
           Common.f1 c.latency; Common.i c.crashes; Common.i c.retries; Common.i c.failovers;
           Common.i c.partials;
         ])
       cells);
  let worst = List.nth cells (List.length cells - 1) in
  let worst_recall = recall ~reference worst in
  Printf.printf "\nat %.0f%% churn: recall %.3f (%d retries, %d failovers, %d partial results)\n"
    (100.0 *. worst.rate) worst_recall worst.retries worst.failovers worst.partials;
  (cells, worst_recall)

(* The 0%-churn reference is a fault-free run: the retry machinery never
   fired, so its rows are exactly what a fault-free deployment returns;
   and the worst churn rate keeps >= 95% of them. *)
let assert_claims ~label (cells, worst_recall) =
  let r = List.hd cells in
  if r.rate > 0.0 || r.retries > 0 || r.giveups > 0 || r.partials > 0 || r.avg_completeness < 1.0
  then
    failwith
      (Printf.sprintf "%s: 0%% churn not fault-free (%d retries, %d give-ups, %d partials)" label
         r.retries r.giveups r.partials);
  if worst_recall < 0.95 then
    failwith (Printf.sprintf "%s: recall %.3f < 0.95 at the worst churn rate" label worst_recall)

let run () =
  Common.section "E-churn: robust query execution under churn"
    "with timeout retries, backoff and replica failover, queries keep >= 95% recall under \
     30% churn";
  let peers, authors, rounds, fault_seed = (128, 40, 3, 7) in
  let rates = [ 0.0; 0.1; 0.3 ] in
  let ((cells, worst_recall) as m) = measure ~peers ~authors ~rounds ~fault_seed ~rates in
  assert_claims ~label:"churn bench" m;
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ( "description",
          Json.Str
            "UniStore robust query execution under churn: identical deployments and \
             workloads with retries and replica failover, against crash/revive churn \
             injected by the deterministic fault driver (all scenario randomness from \
             fault_seed). Recall is measured against the 0%-churn run, which must be \
             fault-free (no retry, give-up or partial result). Regenerate with `dune exec \
             bench/main.exe -- churn` (or `make bench-churn`). See EXPERIMENTS.md, section \
             'Churn'." );
        ( "config",
          Json.Obj
            [
              ("peers", Json.Int peers);
              ("seed", Json.Int 42);
              ("fault_seed", Json.Int fault_seed);
              ("latency_model", Json.Str "lan");
              ("workload", Json.Str (Printf.sprintf "publications(authors=%d)" authors));
              ("workload_rounds", Json.Int rounds);
              ("queries_per_round", Json.Int (List.length workload));
              ("churn_interval_ms", Json.Float interval_ms);
              ("churn_down_ms", Json.Float down_ms);
              ("caching", Json.Str "disabled");
            ] );
        ( "arms",
          Json.Arr
            [
              Json.Obj
                [
                  ("label", Json.Str "retry");
                  ("cells", Json.Arr (List.map (cell_json ~reference:(List.hd cells)) cells));
                ];
            ] );
        ( "summary",
          Json.Obj
            [
              ("retry_recall_at_worst_churn", Json.Float worst_recall);
              ("fault_free_at_zero_churn", Json.Bool true);
            ] );
      ]
  in
  let oc = open_out out_file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" out_file

(* The CI smoke variant: two rates, fewer peers, writes no file. *)
let run_smoke () =
  Common.section "E-churn (smoke)"
    "retries+failover keep recall >= 95% under 30% churn; 0% churn stays fault-free";
  assert_claims ~label:"churn-smoke"
    (measure ~peers:64 ~authors:20 ~rounds:2 ~fault_seed:7 ~rates:[ 0.0; 0.3 ]);
  Printf.printf "\nchurn-smoke: OK\n"
