(* The UniStore benchmark. See README.md for the workloads, the metrics
   and their clocks, and the seed policy.

     main.exe --workload W --seed N --seconds S --trace 0|1
       one workload in this process, for about S seconds: with
       --trace 0 as many seed-derived instances as S allows, printing
       every end-to-end metric; with --trace 1 replays of the first
       instance, untraced and traced, printing every per-layer metric.
       The last line is one JSON object {correct, attempted, failed,
       metrics}.
     main.exe [--seed N] [--traced] [--repeat N] [--json FILE] [--smoke]
       every workload (or the one named), each in its own process, one
       after another; --traced adds the per-layer pass, --repeat runs
       each N times and fails if a simulated metric moves between
       repeats, --json writes all results for `compare`.
     main.exe compare A.json B.json
       one row per (workload, metric), judged by BENCHMARK.json's
       bounds. *)

module Json = Unistore_obs.Json

(* Each workload with the seconds one instance takes on the nominal
   host (see Calib), checks included; a run executes about --seconds
   worth of instances. *)
let workloads =
  [
    ("ingest", W_ingest.run, 4.2);
    ("query_mix", W_query_mix.run, 2.6);
    ("lookup_open", W_lookup_open.run, 6.0);
    ("churn_scale", W_churn_scale.run, 3.5);
  ]

let find_workload name = List.find_opt (fun (n, _, _) -> String.equal n name) workloads

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable traced : bool;
  mutable repeat : int;
  mutable smoke : bool;
  mutable trace_out : string option;
  mutable json_out : string option;
  mutable benchmark_json : string;
  mutable anon : string list;
}

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("benchmark: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* One workload in this process                                        *)

let fmt_value v = Printf.sprintf "%.17g" (if Float.is_finite v then v else 0.0)

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun ((m : Metric.def), v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Metric.name (fmt_value v)
              m.Metric.unit_)
          metrics))

(* The end-to-end Sim metrics of a run over several instances: latency
   percentiles over the pooled operations where the workload sees them
   one by one, otherwise (and for every other metric) the median over
   the instances, which one outlying instance cannot move far. *)
let combine_sim (rounds : Deploy.round list) =
  let pooled = List.concat_map (fun (r : Deploy.round) -> r.Deploy.lat) rounds in
  List.map
    (fun (name, _) ->
      match name with
      | "sim_p50_ms" when pooled <> [] -> (name, Metric.percentile pooled 50.0)
      | "sim_p99_ms" when pooled <> [] -> (name, Metric.percentile pooled 99.0)
      | _ -> (name, Metric.median (List.map (fun (r : Deploy.round) -> List.assoc name r.Deploy.sim) rounds)))
    (List.hd rounds).Deploy.sim

let throughput (rounds : Deploy.round list) =
  Metric.ratio
    (float_of_int (List.fold_left (fun acc (r : Deploy.round) -> acc + r.Deploy.ops) 0 rounds))
    (List.fold_left (fun acc (r : Deploy.round) -> acc +. r.Deploy.timed_cpu) 0.0 rounds)

(* Instance [k] of a run with seed [seed]. *)
let instance_seed ~seed k = (seed * 1000) + k

let run_one o (name, run, nominal_s) =
  let scale = if o.smoke then 0.1 else 1.0 in
  (* Calibration slices before and after every round, with the round's
     garbage collected, so they see the host and not the heap. *)
  ignore (Calib.slice ());
  let slices = ref [] in
  let round ~k ~traced ~check =
    slices := Calib.slice () :: !slices;
    Span.reset ~enabled:traced;
    let r = run { Deploy.seed = instance_seed ~seed:o.seed k; scale; e2e = not o.trace; traced; check } in
    Span.reset ~enabled:false;
    Gc.full_major ();
    slices := Calib.slice () :: !slices;
    r
  in
  let rounds, values =
    if o.trace then begin
      (* Replays of the first instance: an untraced one that checks the
         answers and warms the process up, then traced and untraced ones
         alternating until the time is up. The traced ones give the
         per-layer metrics, the untraced ones after the first the base
         of the tracing overhead. *)
      let deadline = Unix.gettimeofday () +. o.seconds in
      let first = round ~k:0 ~traced:false ~check:true in
      let rec loop i plain traced =
        let is_traced = i mod 2 = 1 in
        let r = round ~k:0 ~traced:is_traced ~check:false in
        if is_traced && traced = [] then (
          match o.trace_out with
          | Some dir ->
            (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            Span.write ~path:(Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" name o.seed))
          | None -> ());
        let plain, traced = if is_traced then (plain, traced @ [ r ]) else (plain @ [ r ], traced) in
        if Unix.gettimeofday () < deadline || plain = [] then loop (i + 1) plain traced
        else (plain, traced)
      in
      let plain, traced = loop 1 [] [] in
      let median rs = Metric.median (List.map (fun r -> throughput [ r ]) rs) in
      ( (first :: plain) @ traced,
        ("obs.trace_overhead_frac", 1.0 -. Metric.ratio (median traced) (median plain))
        :: (List.hd traced).Deploy.layers )
    end
    else begin
      (* As many instances as fit the time on the nominal host; the
         count depends only on --seconds, so a seed always means the
         same inputs. CPU seconds are stated in seconds of the nominal
         host (see Calib). *)
      let n = max 1 (int_of_float (Float.round (o.seconds /. nominal_s))) in
      let rounds = List.init n (fun k -> round ~k ~traced:false ~check:true) in
      let speed = Calib.factor !slices in
      ( rounds,
        [
          ( "setup_s",
            Metric.median (List.concat_map (fun (r : Deploy.round) -> r.Deploy.setups) rounds) /. speed );
          ("ops_per_cpu_s", throughput rounds *. speed);
          ("live_heap_mb", Metric.median (List.map (fun (r : Deploy.round) -> r.Deploy.heap_mb) rounds));
        ]
        @ combine_sim rounds )
    end
  in
  let defs = if o.trace then Metric.per_layer else Metric.end_to_end in
  let metrics =
    List.map
      (fun (m : Metric.def) -> (m, Option.value ~default:0.0 (List.assoc_opt m.Metric.name values)))
      defs
  in
  List.iter
    (fun ((m : Metric.def), v) ->
      Printf.printf "%-34s %16.6g %-12s %s\n" m.Metric.name v m.Metric.unit_
        (Metric.clock_label m.Metric.clock))
    metrics;
  (* Traced and untraced replays of one instance must give the same
     answers. *)
  let diverged =
    if o.trace then
      let d = (List.hd rounds).Deploy.digest in
      List.length (List.filter (fun (r : Deploy.round) -> not (String.equal r.Deploy.digest d)) rounds)
    else 0
  in
  let attempted, failed =
    List.fold_left
      (fun (a, f) (r : Deploy.round) -> (a + r.Deploy.attempted, f + r.Deploy.failed))
      (0, diverged)
      (if o.trace then [ List.hd rounds ] else rounds)
  in
  Printf.printf "%s: seed %d, %d round(s), raw ops per CPU s %s, host speed %.3f; %d/%d failed%s\n"
    name o.seed (List.length rounds)
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" (throughput [ r ])) rounds))
    (Calib.factor !slices) failed attempted
    (if diverged > 0 then Printf.sprintf " (%d replay(s) diverged)" diverged else "");
  let correct = failed = 0 in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

type run = { workload : string; seed : int; trace : bool; doc : Json.t }

let spawn (o : opts) ~workload ~trace =
  let args =
    [ Sys.executable_name; "--workload"; workload; "--seed"; string_of_int o.seed; "--seconds";
      Printf.sprintf "%g" o.seconds; "--trace"; (if trace then "1" else "0") ]
    @ (if o.smoke then [ "--smoke" ] else [])
    @ match o.trace_out with Some d -> [ "--trace-out"; d ] | None -> []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       last := line
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  match (status, Json.of_string !last) with
  | Unix.WEXITED 0, Ok doc -> { workload; seed = o.seed; trace; doc }
  | _ -> fail "%s (seed %d, trace %b) failed" workload o.seed trace

let metric_values (r : run) =
  match Json.member "metrics" r.doc with
  | Some (Json.Obj ms) ->
    List.filter_map
      (fun (k, v) ->
        match Json.member "value" v with
        | Some (Json.Float f) -> Some (k, f)
        | Some (Json.Int i) -> Some (k, float_of_int i)
        | _ -> None)
      ms
  | _ -> []

let run_to_json (r : run) =
  Json.Obj
    [ ("workload", Json.Str r.workload); ("seed", Json.Int r.seed); ("trace", Json.Bool r.trace);
      ("result", r.doc) ]

let run_of_json j =
  match (Json.member "workload" j, Json.member "seed" j, Json.member "trace" j, Json.member "result" j) with
  | Some (Json.Str workload), Some (Json.Int seed), Some (Json.Bool trace), Some doc ->
    { workload; seed; trace; doc }
  | _ -> fail "malformed run record"

(* Median and quartiles per (workload, pass, metric) over repeats; a
   simulated metric that moves between repeats of one seed breaks the
   determinism contract. *)
let summarize runs =
  let broken = ref 0 in
  let keys = List.sort_uniq compare (List.map (fun r -> (r.workload, r.trace)) runs) in
  List.iter
    (fun (w, trace) ->
      let rs = List.filter (fun r -> String.equal r.workload w && r.trace = trace) runs in
      Printf.printf "\n%s (%s, %d run(s))\n" w (if trace then "per-layer" else "end-to-end") (List.length rs);
      let names = List.map fst (metric_values (List.hd rs)) in
      List.iter
        (fun name ->
          let vs = List.map (fun r -> Option.value ~default:nan (List.assoc_opt name (metric_values r))) rs in
          let q1, q3 = Metric.quartiles vs in
          let sim = match Metric.find name with Some m -> m.Metric.clock = Metric.Sim | None -> false in
          let moved = sim && List.exists (fun v -> v <> List.hd vs) vs in
          if moved then incr broken;
          Printf.printf "  %-34s median %-14.6g q1 %-14.6g q3 %-14.6g spread %5.1f%%%s\n" name
            (Metric.median vs) q1 q3 (100.0 *. Metric.spread vs)
            (if moved then "  NOT DETERMINISTIC" else ""))
        names)
    keys;
  !broken

let orchestrate (o : opts) =
  let names = match o.workload with Some w -> [ w ] | None -> List.map (fun (n, _, _) -> n) workloads in
  let passes = if o.traced then [ false; true ] else [ false ] in
  let runs =
    List.concat_map
      (fun _ ->
        List.concat_map
          (fun w -> List.map (fun trace -> spawn o ~workload:w ~trace) passes)
          names)
      (List.init (max 1 o.repeat) Fun.id)
  in
  let broken = summarize runs in
  (match o.json_out with
  | Some path ->
    let oc = open_out path in
    output_string oc (Json.to_string (Json.Obj [ ("runs", Json.Arr (List.map run_to_json runs)) ]));
    output_char oc '\n';
    close_out oc
  | None -> ());
  if broken > 0 then fail "%d simulated metric(s) moved between repeats of one seed" broken

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)

type bound = { better_lower : bool; bound : float }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let benchmark_json o =
  match Json.of_string (read_file o.benchmark_json) with
  | Ok j -> j
  | Error e -> fail "%s: %s" o.benchmark_json e

let metric_list j key =
  match Json.member key j with
  | Some (Json.Arr l) ->
    List.filter_map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.Str n), Some (Json.Str u) -> Some (n, u, m)
        | _ -> None)
      l
  | _ -> []

(* BENCHMARK.json must name exactly the program's metrics and units. *)
let check_benchmark_json o =
  let j = benchmark_json o in
  let same key defs =
    let listed = List.map (fun (n, u, _) -> (n, u)) (metric_list j key) in
    let ours = List.map (fun (m : Metric.def) -> (m.Metric.name, m.Metric.unit_)) defs in
    if listed <> ours then fail "%s: %s differs from the metrics the program emits" o.benchmark_json key
  in
  same "end_to_end" Metric.end_to_end;
  same "per_layer" Metric.per_layer;
  Printf.printf "%s names the %d end-to-end and %d per-layer metrics the program emits\n"
    o.benchmark_json (List.length Metric.end_to_end) (List.length Metric.per_layer)

let bounds o =
  let j = benchmark_json o in
  List.map
    (fun (n, _, m) ->
      let better_lower = Json.member "better" m = Some (Json.Str "lower") in
      let bound =
        match Json.member "bound" m with
        | Some (Json.Float f) -> f
        | Some (Json.Int i) -> float_of_int i
        | _ -> infinity
      in
      (n, { better_lower; bound }))
    (metric_list j "end_to_end" @ metric_list j "per_layer")

(* ------------------------------------------------------------------ *)
(* compare                                                              *)

let load_runs path =
  match Json.of_string (read_file path) with
  | Ok j -> (
    match Json.member "runs" j with
    | Some (Json.Arr l) -> List.map run_of_json l
    | _ -> fail "%s: no runs" path)
  | Error e -> fail "%s: %s" path e

(* A simulated metric is exact: any change is a change (both files
   must come from the same seeds). A banded one is worse or improved
   when its median moves by more than its bound, and unresolved when
   either side's spread exceeds the bound, unless every run of B reads
   better than every run of A. Per-layer banded metrics have no bound:
   any move is unresolved. *)
let verdict (b : bound) name va vb =
  let ma = Metric.median va and mb = Metric.median vb in
  let worse_by = (if b.better_lower then mb -. ma else ma -. mb) /. Float.abs (if ma = 0.0 then 1.0 else ma) in
  let exact = match Metric.find name with Some m -> m.Metric.clock = Metric.Sim | None -> false in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> if b.better_lower then y < x else y > x) va) vb
  in
  let v =
    if worse_by = 0.0 then "same"
    else if exact then if worse_by > 0.0 then "worse" else "improved"
    else if Float.max (Metric.spread va) (Metric.spread vb) > b.bound && not all_better then "unresolved"
    else if worse_by > b.bound then "worse"
    else if worse_by < -.b.bound then "improved"
    else if Float.is_finite b.bound then "same"
    else "unresolved"
  in
  (ma, mb, worse_by, v)

let compare_runs o a_path b_path =
  let bounds = bounds o in
  let a = load_runs a_path and b = load_runs b_path in
  let keys = List.sort_uniq compare (List.map (fun r -> (r.workload, r.trace)) (a @ b)) in
  let counts = Hashtbl.create 4 in
  Printf.printf "%-12s %-34s %14s %14s %9s  %s\n" "workload" "metric" "A median" "B median"
    "worse by" "verdict";
  List.iter
    (fun (w, trace) ->
      let runs side = List.filter (fun r -> String.equal r.workload w && r.trace = trace) side in
      let values side name = List.filter_map (fun r -> List.assoc_opt name (metric_values r)) (runs side) in
      List.iter
        (fun name ->
          let va = values a name and vb = values b name in
          if va <> [] && vb <> [] then begin
            let bound =
              Option.value ~default:{ better_lower = true; bound = infinity } (List.assoc_opt name bounds)
            in
            let ma, mb, worse_by, v = verdict bound name va vb in
            Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v));
            Printf.printf "%-12s %-34s %14.6g %14.6g %8.1f%%  %s\n" w name ma mb (100.0 *. worse_by) v
          end)
        (List.sort_uniq compare (List.concat_map (fun r -> List.map fst (metric_values r)) (runs (a @ b)))))
    keys;
  Printf.printf "\n%s\n"
    (String.concat ", "
       (List.map
          (fun v -> Printf.sprintf "%d %s" (Option.value ~default:0 (Hashtbl.find_opt counts v)) v)
          [ "improved"; "same"; "worse"; "unresolved" ]));
  if Hashtbl.mem counts "worse" then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 15.0;
      trace = false;
      traced = false;
      repeat = 1;
      smoke = false;
      trace_out = None;
      json_out = None;
      benchmark_json = "BENCHMARK.json";
      anon = [];
    }
  in
  let specs =
    [
      ("--workload", Arg.String (fun s -> o.workload <- Some s), "NAME run one workload in this process");
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N input seed (default 1)");
      ("--seconds", Arg.Float (fun s -> o.seconds <- s), "S measure for about S seconds (default 15)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> o.trace <- false
          | 1 -> o.trace <- true
          | n -> raise (Arg.Bad (Printf.sprintf "--trace %d: expected 0 or 1" n))),
        "0|1 report end-to-end (0) or per-layer (1) metrics" );
      ("--traced", Arg.Unit (fun () -> o.traced <- true), " also run the per-layer pass");
      ("--repeat", Arg.Int (fun n -> o.repeat <- n), "N run every workload N times");
      ("--smoke", Arg.Unit (fun () -> o.smoke <- true), " every workload at about 1/10 size");
      ("--trace-out", Arg.String (fun d -> o.trace_out <- Some d), "DIR write the traced pass's spans to DIR");
      ("--json", Arg.String (fun p -> o.json_out <- Some p), "FILE write every run's result to FILE");
      ( "--benchmark-json",
        Arg.String (fun p -> o.benchmark_json <- p),
        "FILE the metric list and bounds (default BENCHMARK.json)" );
    ]
  in
  Arg.parse specs (fun a -> o.anon <- o.anon @ [ a ]) "main.exe [options] | main.exe compare A.json B.json";
  match o.anon with
  | [ "compare"; a; b ] -> compare_runs o a b
  | _ :: _ -> fail "unexpected arguments: %s" (String.concat " " o.anon)
  | [] -> (
    (match o.workload with
    | Some w when find_workload w = None -> fail "unknown workload %s" w
    | _ -> ());
    if o.smoke && o.workload = None then begin
      check_benchmark_json o;
      o.seconds <- 0.0;
      o.traced <- true
    end;
    match o.workload with
    | Some w when o.repeat <= 1 && not o.traced -> run_one o (Option.get (find_workload w))
    | _ -> orchestrate o)
