(* churn_scale: the kernel and the overlay at the largest size, under
   retries and failover. A balanced 25,000-peer P-Grid holds 25,000
   uniform 8-byte keys inserted through the DHT interface; the timed
   phase is an open-loop Poisson stream of 50,000 operations, 80%
   lookups and 20% narrow ranges, at 10,000 ops/s from 64 protected
   origins while a seeded fault scenario crashes and revives 5% of the
   other peers every 250 ms. No store skew, no query processor; the key
   working set far exceeds the 128-slot shortcut cache. Arrivals are
   the benchmark's own simulator events (each schedules the next), so
   the generator is never late; latency runs from the due time.

   Under churn an operation may legitimately return a partial answer;
   it fails only when it returns an item it should not, misses one
   while claiming completeness, or never answers. *)

module Rng = Unistore_util.Rng
module Sim = Unistore_sim.Sim
module Dht = Unistore_triple.Dht
module Store = Unistore_pgrid.Store

let peers = 25_000
let keys_n = 25_000
let ops_n = 50_000
let rate_per_s = 10_000.0
let n_origins = 64
let range_share = 0.2

let key_of rng = String.init 8 (fun _ -> Char.chr (Rng.int rng 256))

(* [expected] item ids (sorted) for an answer to be correct; a partial
   answer must be a subset of them. *)
let correct ~expected (r : Dht.result) =
  let got = List.sort_uniq String.compare (List.map (fun (i : Store.item) -> i.Store.item_id) r.Dht.items) in
  let subset = List.for_all (fun id -> List.mem id expected) got in
  subset && ((not r.Dht.complete) || List.length got = List.length expected)

let run (ctx : Deploy.ctx) =
  let rng = Rng.create ctx.Deploy.seed in
  let key_rng = Rng.split rng and op_rng = Rng.split rng and fault_seed = Rng.int rng 1_000_000 in
  let peers = Deploy.scaled ctx peers and keys_n = Deploy.scaled ctx keys_n in
  let ops_n = Deploy.scaled ctx ops_n in
  let (t, keys), setup =
    Deploy.cpu (fun () ->
        let t =
          Deploy.create
            {
              Unistore.default_config with
              Unistore.peers;
              load_balanced = false;
              qgram_index = false;
            }
        in
        let dht = Unistore.dht t in
        let keys = Array.init keys_n (fun _ -> key_of key_rng) in
        let stored = ref 0 in
        Span.record "dht.insert" (fun () ->
            Array.iteri
              (fun i key ->
                dht.Dht.insert ~origin:(Rng.int key_rng peers) ~key ~item_id:(string_of_int i)
                  ~payload:"x" ~k:(fun ok -> if ok then incr stored))
              keys;
            Unistore.settle t);
        if !stored <> keys_n then failwith "churn_scale: set-up inserts incomplete";
        (t, keys))
  in
  (* Sorted (key, id) pairs: the reference for lookups and ranges. *)
  let sorted =
    Array.mapi (fun i k -> (k, string_of_int i)) keys |> Array.to_list
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> Array.of_list
  in
  let origins = Array.init n_origins (fun i -> i * peers / n_origins) in
  let span_ms = float_of_int ops_n /. rate_per_s *. 1000.0 in
  let dht = Unistore.dht t in
  let sim = Unistore.sim t in
  Unistore.reset_metrics t;
  if ctx.Deploy.traced then Deploy.watch_pending t;
  let lat = ref [] and complete = ref 0 and answered = ref 0 and wrong = ref 0 in
  let last_done = ref 0.0 in
  let answers = Buffer.create (16 * ops_n) in
  let finish ~seq ~due ~expected (r : Dht.result) =
    incr answered;
    let now = Sim.now sim in
    last_done := Float.max !last_done now;
    lat := (now -. due) :: !lat;
    if r.Dht.complete then incr complete;
    if not (correct ~expected r) then incr wrong;
    Buffer.add_string answers
      (Printf.sprintf "%d %b %d\n" seq r.Dht.complete (List.length r.Dht.items))
  in
  let nk = Array.length sorted in
  let rec arrive seq () =
    if ctx.Deploy.traced then Deploy.sample_pending t;
    let due = Sim.now sim in
    let origin = origins.(seq mod n_origins) in
    let i = Rng.int op_rng nk in
    (if Rng.float op_rng < range_share then begin
       let j = min (nk - 1) (i + Rng.int op_rng 4) in
       let lo = fst sorted.(i) and hi = fst sorted.(j) in
       let expected = List.sort String.compare (List.init (j - i + 1) (fun d -> snd sorted.(i + d))) in
       dht.Dht.range ~origin ~lo ~hi ~k:(finish ~seq ~due ~expected)
     end
     else begin
       let key, id = sorted.(i) in
       dht.Dht.lookup ~origin ~key ~k:(finish ~seq ~due ~expected:[ id ])
     end);
    if seq + 1 < ops_n then
      Sim.schedule sim ~delay:(Rng.exponential op_rng ~mean:(1000.0 /. rate_per_s)) (arrive (seq + 1))
  in
  let t0 = Unistore.now t in
  let (), p =
    Deploy.phase t (fun () ->
        Span.record "dht.ops" (fun () ->
            ignore
              (Unistore.inject_faults t
                 (Unistore.Faults.spec ~seed:fault_seed ~duration_ms:span_ms
                    ~churn:(Unistore.Faults.churn_spec ~rate:0.05 ~interval_ms:250.0 ~down_ms:250.0 ())
                    ~protected:(Array.to_list origins) ()));
            Sim.schedule sim ~delay:0.0 (arrive 0);
            Unistore.settle t))
  in
  let heap_mb = Deploy.live_heap_mb t in
  let lost = ops_n - !answered in
  let sim_m =
    [
      ("msgs_per_op", Metric.ratio_i p.Deploy.msgs ops_n);
      ("bytes_per_op", Metric.ratio_i (Layers.counter t "net.bytes.sent") ops_n);
      ("sim_p50_ms", Metric.percentile !lat 50.0);
      ("sim_p99_ms", Metric.percentile !lat 99.0);
      ("sim_ops_per_s", 1000.0 *. Metric.ratio (float_of_int !complete) (!last_done -. t0));
    ]
  in
  let layers =
    if ctx.Deploy.traced then
      Layers.common t p ~ops:ops_n ~data_items:keys_n ~rng:(Rng.split rng) ~storm_events:1_000_000
    else []
  in
  {
    Deploy.setups = [ setup ];
    ops = ops_n;
    timed_cpu = p.Deploy.cpu_s;
    heap_mb;
    lat = !lat;
    sim = sim_m;
    layers;
    attempted = ops_n;
    failed = !wrong + lost;
    digest = Deploy.digest_of (Buffer.contents answers :: Deploy.fmt_metrics sim_m);
  }
