(* What every workload shares: its run context, the calls that build a
   deployment (each wrapped in a span), the measurement of a timed phase,
   and the shape of one round's results. *)

module Sim = Unistore_sim.Sim
module Publications = Unistore_workload.Publications

type ctx = {
  seed : int;  (* the instance's seed: drives every generated input *)
  scale : float;  (* 1.0, or about 0.1 under --smoke *)
  e2e : bool;  (* the run reports end-to-end metrics, not per-layer ones *)
  traced : bool;
  check : bool;  (* compare answers with the reference *)
}

let scaled ctx n = max 1 (int_of_float (Float.round (float_of_int n *. ctx.scale)))

(* One round: one instance of the workload on fresh deployments — set
   up, timed phase, answers. Every field except [setups] and
   [timed_cpu] is a function of the instance's seed. *)
type round = {
  setups : float list;  (* CPU s of each deployment set up in the round *)
  ops : int;  (* operations of the timed phase *)
  timed_cpu : float;  (* CPU s of the timed phase *)
  sim : (string * float) list;  (* the end-to-end Sim metrics *)
  lat : float list;  (* simulated ms of each operation, where the benchmark sees them *)
  heap_mb : float;  (* live heap after the timed phase, deployment included *)
  layers : (string * float) list;  (* per-layer metrics; traced rounds only *)
  attempted : int;
  failed : int;  (* wrong, errored or lost answers *)
  digest : string;  (* answers and Sim metrics of the round *)
}

let generate rng ~authors =
  Span.record "workload.generate" (fun () ->
      Publications.generate rng
        {
          Publications.default_params with
          Publications.n_authors = authors;
          n_conferences = 40;
          typo_rate = 0.1;
        })

let events t = Sim.processed (Unistore.sim t)

let create ?sample_keys config =
  let t = Span.record "core.create" (fun () -> Unistore.create ?sample_keys config) in
  Span.set_probe
    {
      Span.sim_ms = (fun () -> Unistore.now t);
      events = (fun () -> events t);
      msgs = (fun () -> Unistore.messages_sent t);
    };
  t

let load t tuples =
  Span.record "core.load" (fun () ->
      let n = Unistore.load t tuples in
      Unistore.settle t;
      n)

(* CPU seconds of [f ()]. *)
let cpu f =
  let c0 = Span.cpu_s () in
  let r = f () in
  (r, Span.cpu_s () -. c0)

(* What a timed phase consumed. *)
type phase = {
  cpu_s : float;
  sim_ms : float;
  events : int;
  msgs : int;
  minor_words : float;
  major_collections : int;
}

let phase t f =
  let g0 = Gc.quick_stat () in
  let s0 = Unistore.now t and e0 = events t and m0 = Unistore.messages_sent t in
  let r, cpu_s = cpu f in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      cpu_s;
      sim_ms = Unistore.now t -. s0;
      events = events t - e0;
      msgs = Unistore.messages_sent t - m0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* Peak simulator queue depth on traced rounds, sampled where the
   benchmark already runs code inside the simulation: its own arrival
   events and every lookup completion. A sampling event of its own
   would move the simulated clock at the end of each drain, and the
   traced round would no longer replay the untraced one. *)
let peak_pending = ref 0

let sample_pending t = peak_pending := max !peak_pending (Sim.pending (Unistore.sim t))

let watch_pending t =
  peak_pending := 0;
  match Unistore.pgrid t with
  | Some ov ->
    Unistore_pgrid.Overlay.set_read_observer ov (Some (fun ~origin:_ _ -> sample_pending t))
  | None -> ()

(* Live words of the OCaml heap after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* The live heap with [t] still reachable: what the deployment and its
   data hold. *)
let live_heap_mb t =
  let words = live_words () in
  ignore (Sys.opaque_identity t);
  float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let digest_of parts = Digest.to_hex (Digest.string (String.concat "\n" parts))
let fmt_metrics l = List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) l
