(* Per-layer metrics shared by the workloads: counts read from the
   deployment's metrics registry, a replay of the heaviest peer's store
   timed from outside, and a bare simulator-kernel storm. *)

module Rng = Unistore_util.Rng
module Sim = Unistore_sim.Sim
module Metrics = Unistore_obs.Metrics
module Histogram = Unistore_obs.Histogram
module Protocol = Unistore.Protocol
module Overlay = Unistore_pgrid.Overlay
module Node = Unistore_pgrid.Node
module Store = Unistore_pgrid.Store

let ratio = Metric.ratio
let ratio_i = Metric.ratio_i

let counter t name = Metrics.counter (Unistore.metrics t) name

let hist t name =
  match List.assoc_opt name (Metrics.histograms (Unistore.metrics t)) with
  | Some h when Histogram.count h > 0 -> Some h
  | _ -> None

let hist_mean t name = match hist t name with Some h -> Histogram.mean h | None -> 0.0
let hist_p t name p = match hist t name with Some h -> Histogram.percentile h p | None -> 0.0

let hit_frac t prefix =
  let hit = counter t (prefix ^ ".hit") and miss = counter t (prefix ^ ".miss") in
  ratio_i hit (hit + miss)

(* Overlay operations issued, counted from [overlay.<op>.ok|incomplete]. *)
let overlay_ops t =
  List.fold_left
    (fun acc (name, n) ->
      if
        String.starts_with ~prefix:"overlay." name
        && (String.ends_with ~suffix:".ok" name || String.ends_with ~suffix:".incomplete" name)
      then acc + n
      else acc)
    0
    (Metrics.counters (Unistore.metrics t))

(* Registry counts of the timed phase (the registry is cleared when it
   starts), per operation where the metric says so. *)
let registry t ~ops =
  let per_op n = ratio_i n ops in
  let by_role pick =
    List.fold_left
      (fun acc (e : Protocol.entry) ->
        if pick e.Protocol.role then acc + counter t ("net.sent." ^ e.Protocol.kind) else acc)
      0 Protocol.pgrid
  in
  let lookups = counter t "overlay.lookup.ok" + counter t "overlay.lookup.incomplete" in
  [
    ("net.msgs_request_per_op", per_op (by_role (function Protocol.Request _ -> true | _ -> false)));
    ("net.msgs_reply_per_op", per_op (by_role (function Protocol.Reply -> true | _ -> false)));
    ( "net.msgs_background_per_op",
      per_op (by_role (function Protocol.Background -> true | _ -> false)) );
    ("net.bytes_per_msg", ratio_i (counter t "net.bytes.sent") (counter t "net.sent"));
    ("net.queue_wait_p99_ms", hist_p t "queue.wait_ms" 99.0);
    ("net.queue_delayed_frac", ratio_i (counter t "queue.delayed") (counter t "queue.msgs"));
    ("pgrid.lookup_hops_mean", hist_mean t "overlay.lookup.hops");
    ("pgrid.lookup_hops_p99", hist_p t "overlay.lookup.hops" 99.0);
    ("pgrid.range_fanout_mean", hist_mean t "overlay.range.fanout");
    ("pgrid.resends_per_op", per_op (counter t "overlay.resend"));
    ("pgrid.failovers", float_of_int (counter t "retry.failover"));
    ("pgrid.giveups", float_of_int (counter t "retry.giveup"));
    ("pgrid.partials", float_of_int (counter t "fault.partial"));
    ("pgrid.batch_retransmits", float_of_int (counter t "batch.retransmit"));
    ("pgrid.boosts_spawned", float_of_int (counter t "balance.spawned"));
    ("pgrid.hot_serve_frac", ratio_i (counter t "balance.hot_serve") lookups);
    ("triple.overlay_ops_per_query", per_op (overlay_ops t));
    ("cache.result_hit_frac", hit_frac t "cache.result");
    ("cache.bind_hit_frac", hit_frac t "cache.bind");
    ("cache.shortcut_hit_frac", hit_frac t "cache.shortcut");
  ]

(* What a timed phase cost the simulator and the garbage collector. *)
let phase (p : Deploy.phase) ~ops =
  [
    ("sim.events_per_op", ratio_i p.Deploy.events ops);
    ("sim.cpu_us_per_event", 1e6 *. ratio p.Deploy.cpu_s (float_of_int p.Deploy.events));
    ("gc.alloc_mw", p.Deploy.minor_words /. 1e6);
    ("gc.major_collections", float_of_int p.Deploy.major_collections);
  ]

let copy s = Bytes.to_string (Bytes.of_string s)

(* The stores of every peer, and the heaviest one replayed into a fresh
   store of the same backend: [put], [find] and [range] timed from
   outside, and the heap the replayed store holds measured as live
   words after a full major collection, next to the backend's own
   memory model. [data_items] is what the workload stored (triples, or
   keys), the base of the amplification ratio. *)
let store t ~data_items ~rng =
  match Unistore.pgrid t with
  | None -> []
  | Some ov ->
    let nodes = Overlay.nodes ov in
    let total = List.fold_left (fun acc (n : Node.t) -> acc + Store.size n.Node.store) 0 nodes in
    let max_per_key =
      List.fold_left
        (fun acc (n : Node.t) ->
          let per_key = Hashtbl.create 64 in
          Store.iter n.Node.store (fun (i : Store.item) ->
              let c = 1 + Option.value ~default:0 (Hashtbl.find_opt per_key i.Store.key) in
              Hashtbl.replace per_key i.Store.key c);
          Hashtbl.fold (fun _ c acc -> max c acc) per_key acc)
        0 nodes
    in
    let heaviest =
      List.fold_left
        (fun (best : Node.t) (n : Node.t) ->
          if Store.size n.Node.store > Store.size best.Node.store then n else best)
        (List.hd nodes) nodes
    in
    let src = Array.of_list (Store.to_list heaviest.Node.store) in
    let n = Array.length src in
    let live0 = Deploy.live_words () in
    (* Fresh strings, as items arriving off the network would be, so the
       measured heap includes what the store keeps of them. *)
    let items =
      Array.map
        (fun (i : Store.item) ->
          {
            Store.key = copy i.Store.key;
            item_id = copy i.Store.item_id;
            payload = copy i.Store.payload;
            version = i.Store.version;
          })
        src
    in
    let fresh = Store.create ~backend:(Store.kind heaviest.Node.store) () in
    let (), put_cpu = Deploy.cpu (fun () -> Array.iter (fun i -> ignore (Store.put fresh i)) items) in
    (* [items] itself, n + 1 words, is not the store's. *)
    let held = Deploy.live_words () - live0 - (n + 1) in
    ignore (Sys.opaque_identity items);
    let keys =
      Array.of_list (List.sort_uniq String.compare (Array.to_list (Array.map (fun (i : Store.item) -> i.Store.key) src)))
    in
    let nk = Array.length keys in
    let probes = Array.init (min 2000 nk) (fun _ -> Rng.int rng nk) in
    let (), find_cpu =
      Deploy.cpu (fun () -> Array.iter (fun i -> ignore (Store.find fresh keys.(i))) probes)
    in
    let (), range_cpu =
      Deploy.cpu (fun () ->
          Array.iter
            (fun i -> ignore (Store.range fresh ~lo:keys.(i) ~hi:keys.(min (nk - 1) (i + 4))))
            probes)
    in
    let model = Store.stats fresh in
    [
      ("store.items_per_triple", ratio_i total data_items);
      ("store.max_items_per_key", float_of_int max_per_key);
      ("store.put_us", 1e6 *. ratio put_cpu (float_of_int n));
      ("store.find_us", 1e6 *. ratio find_cpu (float_of_int (Array.length probes)));
      ("store.range_us", 1e6 *. ratio range_cpu (float_of_int (Array.length probes)));
      ("store.model_bytes_per_item", ratio_i model.Store.bytes n);
      ("store.heap_bytes_per_item", float_of_int (held * (Sys.word_size / 8)) /. float_of_int (max 1 n));
    ]

(* The bare kernel: [events] no-op events through a fresh simulator
   whose queue is held at [depth] pending events (each event schedules
   its successor, one RNG draw for the delay), so its cost per event is
   the scheduler's alone at the workload's queue depth. *)
let kernel_storm ~depth ~events =
  let depth = max 1 depth in
  let sim = Sim.create () in
  let rng = Rng.create 7 in
  let fired = ref 0 in
  let rec ev () =
    incr fired;
    if !fired + depth <= events then Sim.schedule sim ~delay:(10.0 *. Rng.float rng) ev
  in
  for _ = 1 to depth do
    Sim.schedule sim ~delay:(10.0 *. Rng.float rng) ev
  done;
  let (), c = Deploy.cpu (fun () -> Sim.run_all ~max_events:(2 * events) sim) in
  1e9 *. ratio c (float_of_int !fired)

(* The layer metrics every traced round reports the same way. *)
let common t (p : Deploy.phase) ~ops ~data_items ~rng ~storm_events =
  registry t ~ops @ phase p ~ops
  @ Span.record "store.replay" (fun () -> store t ~data_items ~rng)
  @ [
      ("sim.peak_pending", float_of_int !Deploy.peak_pending);
      ( "sim.kernel_ns_per_event",
        Span.record "sim.kernel_storm" (fun () ->
            kernel_storm ~depth:!Deploy.peak_pending ~events:storm_events) );
      ("pgrid.build_s", Span.total_cpu "core.create");
      ("workload.gen_s", Span.total_cpu "workload.generate");
      ("core.load_s", Span.total_cpu "core.load");
      ("core.gossip_s", Span.total_cpu "core.gossip");
    ]
