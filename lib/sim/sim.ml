type t = { mutable now : float; queue : (unit -> unit) Pqueue.t; mutable processed : int }

type timer = Pqueue.handle

let create () = { now = 0.0; queue = Pqueue.create ~filler:(fun () -> ()) (); processed = 0 }

let now t = t.now

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  Pqueue.push t.queue ~priority:(t.now +. delay) f

let schedule_at t ~time f =
  let time = Float.max time t.now in
  Pqueue.push t.queue ~priority:time f

let timer t ~delay f =
  if delay < 0.0 then invalid_arg "Sim.timer: negative delay";
  Pqueue.add t.queue ~priority:(t.now +. delay) f

let no_timer = Pqueue.no_handle
let cancel t h = Pqueue.remove t.queue h

let pending t = Pqueue.size t.queue
let processed t = t.processed

let step t =
  match Pqueue.pop t.queue with
  | None -> false
  | Some (time, f) ->
    t.now <- Float.max t.now time;
    t.processed <- t.processed + 1;
    f ();
    true

let default_max = 20_000_000

let run_until ?(max_events = default_max) t pred =
  let rec go budget =
    if pred () then true
    else if budget <= 0 then failwith "Sim.run_until: event budget exhausted"
    else if step t then go (budget - 1)
    else false
  in
  go max_events

let await t start =
  let cell = ref None in
  start (fun v -> if Option.is_none !cell then cell := Some v);
  ignore (run_until t (fun () -> Option.is_some !cell));
  !cell

let run_all ?(max_events = default_max) t =
  let rec go budget =
    if budget <= 0 then failwith "Sim.run_all: event budget exhausted"
    else if step t then go (budget - 1)
  in
  go max_events

let run_for ?(max_events = default_max) t ~duration =
  if duration < 0.0 then invalid_arg "Sim.run_for: negative duration";
  let deadline = t.now +. duration in
  let rec go budget =
    if budget <= 0 then failwith "Sim.run_for: event budget exhausted"
    else
      match Pqueue.peek_priority t.queue with
      | Some p when p <= deadline ->
        ignore (step t);
        go (budget - 1)
      | _ -> ()
  in
  go max_events;
  t.now <- deadline
