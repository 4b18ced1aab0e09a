module Rng = Unistore_util.Rng
module Metrics = Unistore_obs.Metrics
module Histogram = Unistore_obs.Histogram
module Shortcuts = Unistore_cache.Shortcuts

type result = Store.result = {
  items : Store.item list;
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
  latency : float;
}

type kind =
  | Single
  | Shower
  | Batch of { keys : string list; on_ack : string -> Store.item list -> unit }

(* The per-kind part of a pending request. *)
type shape =
  | Single_state of {
      mutable via : int option;
          (* the peer a routing shortcut forwarded to, if one was used:
             a timeout invalidates that peer's shortcut entries before
             the retry falls back to greedy routing *)
    }
  | Shower_state of {
      expected : (int, unit) Hashtbl.t;  (* message tokens announced as forwards *)
      received : (int, unit) Hashtbl.t;  (* tokens whose hit arrived *)
      mutable missing : int;  (* |expected \ received| *)
      mutable truncated : int;  (* sub-ranges dropped at the hop limit *)
      peers : (int, unit) Hashtbl.t;  (* distinct peers that reported *)
      mutable wave_floor : int;
          (* tokens below this belong to abandoned waves: a retry resets
             the termination accounting and only counts tokens minted by
             the new wave, so stragglers from a half-dead old wave cannot
             wedge completion (their rows are still salvaged) *)
    }
  | Batch_state of {
      total : int;  (* batch size, for the acked/total coverage estimate *)
      unacked : (string, unit) Hashtbl.t;  (* keys no region acked yet *)
      mutable regions : int;  (* per-region ack messages received *)
      on_ack : string -> Store.item list -> unit;
    }

type pending = {
  rid : int;
  op : string;  (* metric label and RTT class: lookup/range/bulk-insert/... *)
  origin : Node.t;
  shape : shape;
  send : int -> unit;  (* (re-)issue the request *)
  started : float;
  mutable attempts : int;
  mutable items : Store.item list;
  mutable hops : int;
  mutable deadline : Sim.timer;  (* the current attempt's; [finish] cancels it *)
  k : result -> unit;
}

type t = {
  net : Message.t Net.t;
  rng : Rng.t;
  mutable config : Config.t;
  pending : (int, pending) Hashtbl.t;
  mutable next_rid : int;
}

let create ~net ~rng ~config =
  { net; rng; config; pending = Hashtbl.create 64; next_rid = 0 }

let config t = t.config
let set_config t config = t.config <- config
let now t = Sim.now (Net.sim t.net)

let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  rid

let live t rid = Hashtbl.mem t.pending rid

let count t ?by name =
  match Net.metrics t.net with Some m -> Metrics.incr m ?by name | None -> ()

(* Histogram bucket ladders chosen for the quantities' natural ranges:
   hop counts are O(log n) (unit buckets resolve them exactly), retries
   are bounded by [config.retries], fan-out can reach the full overlay. *)
let hop_buckets = Histogram.linear ~lo:0.0 ~step:1.0 ~n:33
let retry_buckets = Histogram.linear ~lo:0.0 ~step:1.0 ~n:9
let fanout_buckets = [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048. ]

let record t p ~peers_hit ~latency ~complete =
  match Net.metrics t.net with
  | None -> ()
  | Some m ->
    let name s = "overlay." ^ p.op ^ s in
    Metrics.observe m ~buckets:hop_buckets (name ".hops") (float_of_int p.hops);
    (match p.shape with
    | Single_state _ ->
      Metrics.observe m ~buckets:retry_buckets (name ".retries") (float_of_int p.attempts)
    | Shower_state _ | Batch_state _ ->
      Metrics.observe m ~buckets:fanout_buckets (name ".fanout") (float_of_int peers_hit));
    Metrics.observe m (name ".latency_ms") latency;
    Metrics.incr m (name (if complete then ".ok" else ".incomplete"))

(* One stable sort by (key, item id, version descending), keeping the
   first item of each (key, item id) run: the highest version wins, and
   of equal versions the one earliest in [items]. *)
let dedupe_items items =
  let cmp (a : Store.item) (b : Store.item) =
    match String.compare a.key b.key with
    | 0 -> (
      match String.compare a.item_id b.item_id with 0 -> Int.compare b.version a.version | c -> c)
    | c -> c
  in
  let rec firsts acc = function
    | [] -> List.rev acc
    | (i : Store.item) :: rest -> (
      match acc with
      | (j : Store.item) :: _ when String.equal i.key j.key && String.equal i.item_id j.item_id ->
        firsts acc rest
      | _ -> firsts (i :: acc) rest)
  in
  match items with [] | [ _ ] -> items | _ -> firsts [] (List.stable_sort cmp items)

let coverage ~complete ~reached ~addressed =
  if complete then 1.0
  else if addressed = 0 then 0.0
  else float_of_int reached /. float_of_int addressed

(* Leave a marker in the trace, correlated to the request id:
   [fault.partial] when an operation finishes without full coverage, so
   trace linting can tell "crash handled by graceful degradation" from
   "crash silently swallowed"; [fault.retry] before each re-send, so it
   can tell a retry that revisits a peer from a routing loop. *)
let mark t p kind =
  match Net.trace t.net with
  | Some tr -> Trace.mark tr ~corr:p.rid ~time:(now t) ~src:p.origin.Node.id ~kind ()
  | None -> ()

let finish t p ~complete =
  Hashtbl.remove t.pending p.rid;
  ignore (Sim.cancel (Net.sim t.net) p.deadline);
  let latency = now t -. p.started in
  let peers_hit, completeness =
    match p.shape with
    | Single_state _ -> (1, coverage ~complete ~reached:0 ~addressed:1)
    | Shower_state s ->
      (* Each token stands for one addressed region of the split tree. *)
      let announced = Hashtbl.length s.expected in
      ( Hashtbl.length s.peers,
        coverage ~complete ~reached:(announced - max 0 s.missing)
          ~addressed:(announced + s.truncated) )
    | Batch_state b ->
      (b.regions, coverage ~complete ~reached:(b.total - Hashtbl.length b.unacked) ~addressed:b.total)
  in
  record t p ~peers_hit ~latency ~complete;
  (* Fan-out classes learn their end-to-end latency here; single
     requests learn it per responder in [answer]. Give-ups are never
     observed (Karn's rule), so the estimate is not dragged up by its
     own timeouts. *)
  (match p.shape with
  | Shower_state _ | Batch_state _ when complete && t.config.adaptive_timeout ->
    Rtt.observe p.origin.Node.rtt ~cls:p.op latency
  | _ -> ());
  if not complete then begin
    count t "fault.partial";
    mark t p "fault.partial"
  end;
  p.k { items = dedupe_items p.items; hops = p.hops; peers_hit; complete; completeness; latency }

let min_timeout_ms = 25.0

(* The base deadline for one attempt: the origin's EWMA latency
   estimate ({!Rtt}) when adaptive timeouts are on and warm — sharpest
   via the shortcut target when one carried the request — clamped into
   [min_timeout_ms, timeout_ms]. Cold trackers (and adaptive off) fall
   back to the fixed [timeout_ms]. *)
let deadline_base t p =
  let c = t.config in
  if not c.adaptive_timeout then c.timeout_ms
  else
    let via = match p.shape with Single_state s -> s.via | Shower_state _ | Batch_state _ -> None in
    Rtt.deadline p.origin.Node.rtt ?peer:via ~cls:p.op ~fallback:c.timeout_ms
      ~min_ms:min_timeout_ms ~max_ms:c.timeout_ms ()

(* Retry [n] waits [base * 2^n], up to [retry_jitter] fractional jitter
   either way. Exponential backoff rides out multi-wave churn (a replica
   group wholly down now is likely partly back later); jitter
   desynchronizes the retry storm after a crash wave. *)
let retry_delay t ~base ~attempt =
  let d = base *. (2.0 ** float_of_int attempt) in
  let j = t.config.retry_jitter in
  if j <= 0.0 then d else d *. (1.0 +. Rng.float_in t.rng (-.j) j)

(* What a retry resets before re-sending. A single request distrusts
   the shortcut that carried it, so the retry routes greedily. A shower
   has no single destination: it abandons the old wave's token
   accounting wholesale and re-issues the operation from the origin,
   whose routing (with failover) now steers around the peers that ate
   the first wave. A batch re-sends only its unacked keys. *)
let new_attempt t p =
  match p.shape with
  | Single_state s ->
    Option.iter
      (fun peer ->
        let n = Shortcuts.invalidate_peer p.origin.Node.shortcuts peer in
        if n > 0 then count t ~by:n "cache.shortcut.invalidate";
        s.via <- None)
      s.via
  | Shower_state s ->
    s.wave_floor <- t.next_rid;
    Hashtbl.reset s.expected;
    Hashtbl.reset s.received;
    s.missing <- 0;
    s.truncated <- 0
  | Batch_state _ -> count t "batch.retransmit"

(* Arm the deadline of attempt [attempt]. The jitter is drawn even when
   a re-send already finished the request, so the RNG stream does not
   depend on it; only a live request gets a timer, and [finish] cancels
   it, so a timer that fires always finds its request pending. *)
let rec arm t p ~attempt =
  let delay = retry_delay t ~base:(deadline_base t p) ~attempt in
  if live t p.rid then
    p.deadline <-
      Sim.timer (Net.sim t.net) ~delay (fun () ->
          if p.attempts < t.config.retries then begin
            p.attempts <- p.attempts + 1;
            count t "overlay.resend";
            count t "retry.attempt";
            mark t p "fault.retry";
            new_attempt t p;
            p.send p.rid;
            arm t p ~attempt:p.attempts
          end
          else begin
            count t "retry.giveup";
            finish t p ~complete:false
          end)

let start t ~op ~origin kind ~k ~send =
  let rid = fresh_rid t in
  let shape =
    match kind with
    | Single -> Single_state { via = None }
    | Shower ->
      Shower_state
        {
          expected = Hashtbl.create 16;
          received = Hashtbl.create 16;
          missing = 0;
          truncated = 0;
          peers = Hashtbl.create 16;
          wave_floor = 0;
        }
    | Batch { keys; on_ack } ->
      let unacked = Hashtbl.create (List.length keys) in
      List.iter (fun key -> Hashtbl.replace unacked key ()) keys;
      Batch_state { total = List.length keys; unacked; regions = 0; on_ack }
  in
  let p =
    {
      rid;
      op;
      origin;
      shape;
      send;
      started = now t;
      attempts = 0;
      items = [];
      hops = 0;
      deadline = Sim.no_timer;
      k;
    }
  in
  Hashtbl.replace t.pending rid p;
  arm t p ~attempt:0;
  send rid

let set_via t rid peer =
  match Hashtbl.find_opt t.pending rid with
  | Some { shape = Single_state s; _ } -> s.via <- Some peer
  | _ -> ()

let answer t rid ?from ~items ~hops () =
  match Hashtbl.find_opt t.pending rid with
  | Some ({ shape = Single_state _; _ } as p) ->
    (* Feed the completed exchange into the origin's latency tracker. *)
    (match from with
    | Some peer when t.config.adaptive_timeout ->
      Rtt.observe p.origin.Node.rtt ~peer ~cls:p.op (now t -. p.started)
    | _ -> ());
    p.items <- items;
    p.hops <- hops;
    finish t p ~complete:true
  | _ -> ()

(* Termination detection is order-independent: every Range/Probe message
   carries a unique token; its receiver's hit echoes that token and names
   the tokens of the messages it forwarded in turn. The operation is done
   when every announced token has been answered — a grandchild's hit
   racing past its parent's (easy under heavy-tailed wide-area latencies)
   cannot end the operation early, and a peer participating several times
   (router now, processor later, as in sequential traversals) is counted
   per message. A sub-range cut off by the hop limit is announced as
   [Message.hop_limited]: it can never answer, so once everything else
   did the request finishes partial at once — a retry would hit the same
   wall. *)
let hit t rid ~from ~token ~items ~targets ~hops =
  match Hashtbl.find_opt t.pending rid with
  | Some ({ shape = Shower_state s; _ } as p) ->
    Hashtbl.replace s.peers from ();
    p.items <- List.rev_append items p.items;
    p.hops <- max p.hops hops;
    (* A straggler from an abandoned wave only contributes its rows. *)
    if token >= s.wave_floor then begin
      let fresh = not (Hashtbl.mem s.received token) in
      if fresh then begin
        Hashtbl.replace s.received token ();
        if Hashtbl.mem s.expected token then s.missing <- s.missing - 1
        else Hashtbl.replace s.expected token ()
      end;
      List.iter
        (fun q ->
          if q = Message.hop_limited then (if fresh then s.truncated <- s.truncated + 1)
          else if not (Hashtbl.mem s.expected q) then begin
            Hashtbl.replace s.expected q ();
            if not (Hashtbl.mem s.received q) then s.missing <- s.missing + 1
          end)
        targets;
      if s.missing <= 0 then finish t p ~complete:(s.truncated = 0)
    end
  | _ -> ()

(* A region's ack: resolve its keys (first answer per key wins). Each
   key's payload goes to [on_ack] only; the batch's own result carries
   no items. *)
let ack t rid ~found ~hops =
  match Hashtbl.find_opt t.pending rid with
  | Some ({ shape = Batch_state b; _ } as p) ->
    b.regions <- b.regions + 1;
    p.hops <- max p.hops hops;
    List.iter
      (fun (key, items) ->
        if Hashtbl.mem b.unacked key then begin
          Hashtbl.remove b.unacked key;
          b.on_ack key items
        end)
      found;
    if Hashtbl.length b.unacked = 0 then finish t p ~complete:true
  | _ -> ()

let unacked t rid =
  match Hashtbl.find_opt t.pending rid with
  | Some { shape = Batch_state b; _ } -> Hashtbl.mem b.unacked
  | _ -> fun _ -> false
