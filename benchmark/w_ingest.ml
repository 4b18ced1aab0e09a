(* ingest: the write path. A load-balanced 256-peer P-Grid is shaped to
   a 500-author publications dataset (about 11,900 triples), then
   [Unistore.load] ships every participant's triples as one batched
   insert and [settle] drains replication. Zipf-hot [A#v] and q-gram
   keys make the per-peer store inserts dominate the host CPU; the
   query processor is idle. One operation is one triple. The load is a
   single call that reports no per-operation latency, so the simulated
   latencies are those of reading a seeded sample of the triples back:
   the read-after-write latency of what was just placed. *)

module Rng = Unistore_util.Rng
module Triple = Unistore_triple.Triple
module Tstore = Unistore_triple.Tstore
module Publications = Unistore_workload.Publications

let peers = 256
let authors = 500
let readback = 1000

(* A seeded sample of triples read back through their tuples' OID
   keys: each must come back, and the lookups' simulated latencies are
   the workload's read-after-write latencies. *)
let read_back t (ds : Publications.dataset) rng ~n =
  let triples = Array.of_list ds.Publications.triples in
  let failed = ref 0 and lat = ref [] in
  for i = 0 to n - 1 do
    let tr = triples.(Rng.int rng (Array.length triples)) in
    let got, meta = Tstore.by_oid_sync (Unistore.tstore t) ~origin:(i mod peers) tr.Triple.oid in
    lat := meta.Tstore.latency :: !lat;
    if (not meta.Tstore.complete) || not (List.exists (Triple.equal tr) got) then incr failed
  done;
  (!failed, !lat)

let run (ctx : Deploy.ctx) =
  let rng = Rng.create ctx.Deploy.seed in
  let data_rng = Rng.split rng and check_rng = Rng.split rng and store_rng = Rng.split rng in
  let (ds, t), setup =
    Deploy.cpu (fun () ->
        let ds = Deploy.generate data_rng ~authors:(Deploy.scaled ctx authors) in
        let t =
          Deploy.create ~sample_keys:(Publications.sample_keys ds)
            { Unistore.default_config with Unistore.peers }
        in
        (ds, t))
  in
  let triples = List.length ds.Publications.triples in
  Unistore.reset_metrics t;
  if ctx.Deploy.traced then Deploy.watch_pending t;
  let stored, p = Deploy.phase t (fun () -> Deploy.load t ds.Publications.tuples) in
  let heap_mb = Deploy.live_heap_mb t in
  let bytes = Layers.counter t "net.bytes.sent" in
  let layers =
    if ctx.Deploy.traced then
      Layers.common t p ~ops:triples ~data_items:triples ~rng:store_rng ~storm_events:1_000_000
    else []
  in
  let wrong, lat = read_back t ds check_rng ~n:(Deploy.scaled ctx readback) in
  let sim =
    [
      ("msgs_per_op", Metric.ratio_i p.Deploy.msgs triples);
      ("bytes_per_op", Metric.ratio_i bytes triples);
      ("sim_p50_ms", Metric.percentile lat 50.0);
      ("sim_p99_ms", Metric.percentile lat 99.0);
      ("sim_ops_per_s", 1000.0 *. Metric.ratio (float_of_int triples) p.Deploy.sim_ms);
    ]
  in
  let lost = triples - stored in
  {
    Deploy.setups = [ setup ];
    ops = triples;
    timed_cpu = p.Deploy.cpu_s;
    heap_mb;
    lat;
    sim;
    layers;
    attempted = triples;
    failed = lost + wrong;
    digest = Deploy.digest_of (string_of_int stored :: Deploy.fmt_metrics sim);
  }
