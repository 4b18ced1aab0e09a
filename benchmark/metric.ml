(* The benchmark's metrics: names, units and the clock each is read
   from. BENCHMARK.json names the same metrics with their direction and
   regression bound; `--smoke` checks that the two lists agree.

   - [Sim]: simulated time, messages, bytes and other counts. Exact: the
     same seed gives the same value on every run and every host.
   - [Cpu]: host process CPU seconds (user + system), banded.
   - [Heap]: OCaml heap words, banded. *)

type clock = Sim | Cpu | Heap
type def = { name : string; unit_ : string; clock : clock }

let d clock unit_ name = { name; unit_; clock }

let end_to_end =
  [
    d Cpu "s" "setup_s";
    d Cpu "1/s" "ops_per_cpu_s";
    d Heap "MB" "live_heap_mb";
    d Sim "msg/op" "msgs_per_op";
    d Sim "B/op" "bytes_per_op";
    d Sim "ms" "sim_p50_ms";
    d Sim "ms" "sim_p99_ms";
    d Sim "1/s" "sim_ops_per_s";
  ]

(* The query shapes of query_mix; each has a CPU and a simulated-time
   metric of its own. *)
let shapes = [ "point"; "range"; "join"; "topn"; "edist"; "skyline"; "skyline_mutant" ]

let per_layer =
  [
    d Sim "event/op" "sim.events_per_op";
    d Cpu "us" "sim.cpu_us_per_event";
    d Cpu "ns" "sim.kernel_ns_per_event";
    d Sim "event" "sim.peak_pending";
    d Sim "msg/op" "net.msgs_request_per_op";
    d Sim "msg/op" "net.msgs_reply_per_op";
    d Sim "msg/op" "net.msgs_background_per_op";
    d Sim "B/msg" "net.bytes_per_msg";
    d Sim "ms" "net.queue_wait_p99_ms";
    d Sim "frac" "net.queue_delayed_frac";
    d Cpu "s" "pgrid.build_s";
    d Sim "hop" "pgrid.lookup_hops_mean";
    d Sim "hop" "pgrid.lookup_hops_p99";
    d Sim "peer" "pgrid.range_fanout_mean";
    d Sim "msg/op" "pgrid.resends_per_op";
    d Sim "count" "pgrid.failovers";
    d Sim "count" "pgrid.giveups";
    d Sim "count" "pgrid.partials";
    d Sim "count" "pgrid.batch_retransmits";
    d Sim "count" "pgrid.boosts_spawned";
    d Sim "frac" "pgrid.hot_serve_frac";
    d Sim "item/triple" "store.items_per_triple";
    d Sim "item" "store.max_items_per_key";
    d Cpu "us" "store.put_us";
    d Cpu "us" "store.find_us";
    d Cpu "us" "store.range_us";
    d Sim "B/item" "store.model_bytes_per_item";
    d Heap "B/item" "store.heap_bytes_per_item";
    d Sim "op/query" "triple.overlay_ops_per_query";
    d Cpu "us" "vql.parse_us";
    d Cpu "us" "qproc.plan_us";
  ]
  @ List.map (fun s -> d Cpu "ms" ("qproc.cpu_ms." ^ s)) shapes
  @ List.map (fun s -> d Sim "ms" ("qproc.sim_ms." ^ s)) shapes
  @ [
      d Sim "row/row" "qproc.rows_touched_per_row";
      d Sim "B/query" "qproc.bytes_shipped_per_query";
      d Sim "frac" "cache.result_hit_frac";
      d Sim "frac" "cache.bind_hit_frac";
      d Sim "frac" "cache.shortcut_hit_frac";
      d Cpu "s" "workload.gen_s";
      d Cpu "s" "core.load_s";
      d Cpu "s" "core.gossip_s";
      d Heap "Mw" "gc.alloc_mw";
      d Heap "count" "gc.major_collections";
      d Cpu "frac" "obs.trace_overhead_frac";
    ]

let find name = List.find_opt (fun m -> String.equal m.name name) (end_to_end @ per_layer)

let clock_label = function Sim -> "sim" | Cpu -> "cpu" | Heap -> "heap"

(* ------------------------------------------------------------------ *)
(* Order statistics, as Python's statistics.quantiles(n=4) and median
   compute them, so the spreads printed here are the ones a reader
   recomputes from the raw values. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's default "exclusive" method. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let m = median xs in
  let q1, q3 = quartiles xs in
  if m = 0.0 then (if q3 -. q1 = 0.0 then 0.0 else infinity) else (q3 -. q1) /. Float.abs m

(* Percentile of raw samples, linear between closest ranks. *)
let percentile xs p =
  match xs with
  | [] -> 0.0
  | _ -> Unistore_util.Stats.percentile xs p

let ratio a b = if b = 0.0 then 0.0 else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)
