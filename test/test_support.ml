(* Helpers shared by the test suites: one blocking wait, the small
   P-Grid deployments the overlay suites build and one shower-peer
   crash. The suites [open] this module, so it names other modules by
   full path and brings nothing into scope but its five helpers. *)

(* Wait for one asynchronous operation (the stack below the facade
   never blocks); fail the test if the event queue drains first. *)
let await sim start =
  match Unistore_sim.Sim.await sim start with Some v -> v | None -> Alcotest.fail "drained"

(* [n] lowercase words of 4 to 11 letters. *)
let random_words rng n =
  List.init n (fun _ ->
      String.init (4 + Unistore_util.Rng.int rng 8) (fun _ ->
          Char.chr (Char.code 'a' + Unistore_util.Rng.int rng 26)))

(* An oracle-built P-Grid of [n] peers partitioned on [keys]. *)
let build_overlay ?(n = 32) ?(seed = 42) ?(model = Unistore_sim.Latency.Constant 1.0)
    ?(drop = 0.0) ?(config = Unistore_pgrid.Config.default) ?(balanced = false) ~keys () =
  let sim = Unistore_sim.Sim.create () in
  let rng = Unistore_util.Rng.create seed in
  let latency = Unistore_sim.Latency.create model ~n ~rng in
  Unistore_pgrid.Build.oracle sim ~latency ~rng ~drop ~config ~n ~sample_keys:keys ~balanced ()

(* Insert each key as item [id<i>] with the key as payload, from origins
   round-robin; every insert must complete. *)
let insert_all ov keys =
  let module Overlay = Unistore_pgrid.Overlay in
  List.iteri
    (fun i k ->
      let origin = i mod Overlay.node_count ov in
      let r =
        await (Overlay.sim ov) (fun ret ->
            Overlay.insert ov ~origin ~key:k ~item_id:(Printf.sprintf "id%d" i) ~payload:k ~k:ret ())
      in
      if not r.Overlay.complete then Alcotest.failf "insert of %S incomplete" k)
    keys

(* Kill a shower peer mid-range: [delay] ms from now, unless
   [finished ()] holds by then, kill the non-origin peer that most
   recently received a [range] message sent since now. The pick is read
   from the trace [tr], so it is deterministic. The result holds the
   killed peer once there is one. *)
let kill_shower_peer ov tr ~origin ~delay ~finished =
  let module Trace = Unistore_sim.Trace in
  let module Overlay = Unistore_pgrid.Overlay in
  let sim = Overlay.sim ov in
  let start = Unistore_sim.Sim.now sim and killed = ref None in
  Unistore_sim.Sim.schedule sim ~delay (fun () ->
      let receivers =
        List.filter_map
          (fun (e : Trace.event) ->
            if e.time >= start && e.kind = "range" && e.dst <> origin && e.outcome = Trace.Delivered
            then Some e.dst
            else None)
          (Trace.events tr)
      in
      match (List.rev receivers, finished ()) with
      | id :: _, false ->
        killed := Some id;
        Overlay.kill ov id
      | _ -> ());
  killed
