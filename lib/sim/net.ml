module Rng = Unistore_util.Rng
module Metrics = Unistore_obs.Metrics

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  to_dead : int;
  bytes_sent : int;
  bytes_delivered : int;
}

let zero_stats =
  { sent = 0; delivered = 0; dropped = 0; to_dead = 0; bytes_sent = 0; bytes_delivered = 0 }

let pp_stats fmt s =
  Format.fprintf fmt "sent=%d delivered=%d dropped=%d to_dead=%d bytes_sent=%d bytes_delivered=%d"
    s.sent s.delivered s.dropped s.to_dead s.bytes_sent s.bytes_delivered

(* Peer state is an arena: dense arrays indexed by peer id. The
   simulator mints ids 0..n-1, so id-keyed hashtables only added hashing
   and pointer chasing to every delivery. [handlers]/[slowf]/[pgroup]/
   [alive_pos] grow together; [alive_ids.(0..alive_len-1)] plus the
   inverse index [alive_pos] form a swap-remove set giving O(1) kill,
   revive, liveness test and uniform sampling over alive peers.
   Invariant: [alive_pos.(id)] is the position of [id] in [alive_ids],
   or -1 when [id] is dead or unregistered. *)
type 'msg t = {
  sim : Sim.t;
  latency : Latency.t;
  rng : Rng.t;
  mutable drop : float;
  size : 'msg -> int;
  kind : 'msg -> string;
  corr : 'msg -> int;
  mutable handlers : (src:int -> 'msg -> unit) option array;
  mutable slowf : float array;  (* latency multiplier; 1.0 = normal *)
  mutable pgroup : int array;  (* partition group; 0 = default *)
  mutable max_id : int;  (* highest registered id, -1 if none *)
  mutable n_registered : int;
  mutable alive_ids : int array;
  mutable alive_pos : int array;
  mutable alive_len : int;
  mutable n_slow : int;  (* peers with slowf <> 1.0; 0 short-circuits sends *)
  mutable n_partitioned : int;  (* peers with pgroup <> 0; 0 short-circuits *)
  (* Per-peer service-queue model: a peer with svc_ms > 0 processes one
     inbound message every svc_ms simulated ms; arrivals queue FIFO
     behind in-service work ([busy_until] is the virtual-clock end of
     the last accepted job). svc_ms = 0 (the default) is the classic
     infinite-capacity peer and costs nothing on the delivery path. *)
  mutable svc_ms : float array;
  mutable busy_until : float array;
  mutable qdepth : int array;  (* messages accepted but not yet handled *)
  mutable n_serviced : int;  (* peers with svc_ms > 0; 0 short-circuits *)
  (* Aggregate counters are mutable ints rather than a reallocated
     record: several are bumped on every send and every delivery. *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable to_dead : int;
  mutable bytes_sent : int;
  mutable bytes_delivered : int;
  mutable total_sent : int;
  mutable tracer : Trace.t option;
  mutable metrics : Metrics.t option;
  (* Sorted peer lists are rebuilt lazily and cached: gossip rounds call
     [peers]/[alive_peers] once per peer per round, and rebuilding per
     call would dominate their cost. *)
  mutable peers_cache : int list option;
  mutable alive_cache : int list option;
}

let create sim ~latency ~rng ?(drop = 0.0) ?(size = fun _ -> 64) ?(kind = fun _ -> "msg")
    ?(corr = fun _ -> -1) () =
  {
    sim;
    latency;
    rng = Rng.split rng;
    drop;
    size;
    kind;
    corr;
    handlers = [||];
    slowf = [||];
    pgroup = [||];
    max_id = -1;
    n_registered = 0;
    alive_ids = [||];
    alive_pos = [||];
    alive_len = 0;
    n_slow = 0;
    n_partitioned = 0;
    svc_ms = [||];
    busy_until = [||];
    qdepth = [||];
    n_serviced = 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    to_dead = 0;
    bytes_sent = 0;
    bytes_delivered = 0;
    total_sent = 0;
    tracer = None;
    metrics = None;
    peers_cache = None;
    alive_cache = None;
  }

let ensure_capacity t id =
  let cap = Array.length t.handlers in
  if id >= cap then begin
    let ncap = max (id + 1) (max 64 (cap * 2)) in
    let nhandlers = Array.make ncap None in
    let nslowf = Array.make ncap 1.0 in
    let npgroup = Array.make ncap 0 in
    let npos = Array.make ncap (-1) in
    let nsvc = Array.make ncap 0.0 in
    let nbusy = Array.make ncap 0.0 in
    let nqdepth = Array.make ncap 0 in
    Array.blit t.handlers 0 nhandlers 0 cap;
    Array.blit t.slowf 0 nslowf 0 cap;
    Array.blit t.pgroup 0 npgroup 0 cap;
    Array.blit t.alive_pos 0 npos 0 cap;
    Array.blit t.svc_ms 0 nsvc 0 cap;
    Array.blit t.busy_until 0 nbusy 0 cap;
    Array.blit t.qdepth 0 nqdepth 0 cap;
    t.handlers <- nhandlers;
    t.slowf <- nslowf;
    t.pgroup <- npgroup;
    t.alive_pos <- npos;
    t.svc_ms <- nsvc;
    t.busy_until <- nbusy;
    t.qdepth <- nqdepth
  end

let set_trace t tr = t.tracer <- tr
let trace t = t.tracer
let set_metrics t m = t.metrics <- m
let metrics t = t.metrics

let drop t = t.drop

let set_drop t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Net.set_drop: probability out of [0,1]";
  t.drop <- p

let in_arena t peer = peer >= 0 && peer <= t.max_id

let set_slow t peer ~factor =
  if factor < 1.0 then invalid_arg "Net.set_slow: factor < 1";
  if peer >= 0 then begin
    ensure_capacity t peer;
    if Float.equal t.slowf.(peer) 1.0 && not (Float.equal factor 1.0) then
      t.n_slow <- t.n_slow + 1;
    t.slowf.(peer) <- factor
  end

let clear_slow t peer =
  if peer >= 0 && peer < Array.length t.slowf && not (Float.equal t.slowf.(peer) 1.0)
  then begin
    t.n_slow <- t.n_slow - 1;
    t.slowf.(peer) <- 1.0
  end

let slow_factor t peer =
  if peer >= 0 && peer < Array.length t.slowf then t.slowf.(peer) else 1.0

let set_service t peer ~ms =
  if ms < 0.0 then invalid_arg "Net.set_service: negative service time";
  if peer >= 0 then begin
    ensure_capacity t peer;
    let old = t.svc_ms.(peer) in
    if old <= 0.0 && ms > 0.0 then t.n_serviced <- t.n_serviced + 1
    else if old > 0.0 && ms <= 0.0 then t.n_serviced <- t.n_serviced - 1;
    t.svc_ms.(peer) <- ms;
    if ms <= 0.0 then begin
      t.busy_until.(peer) <- 0.0;
      t.qdepth.(peer) <- 0
    end
  end

let set_service_all t ~ms =
  for id = 0 to t.max_id do
    match t.handlers.(id) with Some _ -> set_service t id ~ms | None -> ()
  done

let service_ms t peer =
  if peer >= 0 && peer < Array.length t.svc_ms then t.svc_ms.(peer) else 0.0

let queue_depth t peer =
  if peer >= 0 && peer < Array.length t.qdepth then t.qdepth.(peer) else 0

(* Simulated ms of queued + in-service work at [peer] right now. *)
let service_backlog t peer =
  if peer >= 0 && peer < Array.length t.busy_until then
    Float.max 0.0 (t.busy_until.(peer) -. Sim.now t.sim)
  else 0.0

let set_partition t peer ~group =
  if peer >= 0 then begin
    ensure_capacity t peer;
    let old = t.pgroup.(peer) in
    if old = 0 && group <> 0 then t.n_partitioned <- t.n_partitioned + 1
    else if old <> 0 && group = 0 then t.n_partitioned <- t.n_partitioned - 1;
    t.pgroup.(peer) <- group
  end

let clear_partitions t =
  if t.n_partitioned > 0 then Array.fill t.pgroup 0 (Array.length t.pgroup) 0;
  t.n_partitioned <- 0

let partition_group t peer =
  if peer >= 0 && peer < Array.length t.pgroup then t.pgroup.(peer) else 0

let partitioned t ~src ~dst =
  src <> dst && partition_group t src <> partition_group t dst

let invalidate_peer_caches t =
  t.peers_cache <- None;
  t.alive_cache <- None

(* Alive-set maintenance: O(1) add/remove by swapping with the tail. *)
let alive_add t peer =
  if t.alive_pos.(peer) < 0 then begin
    if t.alive_len >= Array.length t.alive_ids then begin
      let ncap = max 64 (2 * max t.alive_len 1) in
      let nids = Array.make ncap 0 in
      Array.blit t.alive_ids 0 nids 0 t.alive_len;
      t.alive_ids <- nids
    end;
    t.alive_ids.(t.alive_len) <- peer;
    t.alive_pos.(peer) <- t.alive_len;
    t.alive_len <- t.alive_len + 1
  end

let alive_remove t peer =
  let pos = t.alive_pos.(peer) in
  if pos >= 0 then begin
    let last = t.alive_len - 1 in
    let moved = t.alive_ids.(last) in
    t.alive_ids.(pos) <- moved;
    t.alive_pos.(moved) <- pos;
    t.alive_pos.(peer) <- -1;
    t.alive_len <- last
  end

let registered t peer =
  in_arena t peer && (match t.handlers.(peer) with Some _ -> true | None -> false)

let register t peer handler =
  if peer < 0 then invalid_arg "Net.register: negative peer id";
  ensure_capacity t peer;
  (match t.handlers.(peer) with None -> t.n_registered <- t.n_registered + 1 | Some _ -> ());
  t.handlers.(peer) <- Some handler;
  if peer > t.max_id then t.max_id <- peer;
  alive_add t peer;
  invalidate_peer_caches t

let is_alive t peer = peer >= 0 && peer < Array.length t.alive_pos && t.alive_pos.(peer) >= 0

let kill t peer =
  if registered t peer then begin
    alive_remove t peer;
    t.alive_cache <- None
  end

let revive t peer =
  if registered t peer then begin
    alive_add t peer;
    t.alive_cache <- None
  end

let registered_count t = t.n_registered
let alive_count t = t.alive_len

let random_alive t rng =
  if t.alive_len = 0 then None else Some t.alive_ids.(Rng.int rng t.alive_len)

let iter_alive t f =
  (* Ascending id order — not [alive_ids] order, which swap-removal
     scrambles — so callers that consume RNG draws per peer stay
     deterministic across kernel versions. *)
  for id = 0 to t.max_id do
    if t.alive_pos.(id) >= 0 then f id
  done

let peers t =
  match t.peers_cache with
  | Some l -> l
  | None ->
    let l = ref [] in
    for id = t.max_id downto 0 do
      match t.handlers.(id) with Some _ -> l := id :: !l | None -> ()
    done;
    t.peers_cache <- Some !l;
    !l

let alive_peers t =
  match t.alive_cache with
  | Some l -> l
  | None ->
    let l = ref [] in
    for id = t.max_id downto 0 do
      if t.alive_pos.(id) >= 0 then l := id :: !l
    done;
    t.alive_cache <- Some !l;
    !l

(* Buckets of the [queue.depth] histogram: read only when the histogram
   is created, so built once here rather than per queued message. *)
let queue_depth_buckets = Unistore_obs.Histogram.linear ~lo:1.0 ~step:1.0 ~n:64

let send t ~src ~dst msg =
  let nbytes = t.size msg in
  t.sent <- t.sent + 1;
  t.bytes_sent <- t.bytes_sent + nbytes;
  t.total_sent <- t.total_sent + 1;
  (match t.metrics with
  | Some m ->
    let kind = t.kind msg in
    Metrics.incr m "net.sent";
    Metrics.incr m ~by:nbytes "net.bytes.sent";
    Metrics.incr m ("net.sent." ^ kind);
    Metrics.incr m ~by:nbytes ("net.bytes.sent." ^ kind)
  | None -> ());
  let event =
    match t.tracer with
    | Some tr ->
      Some
        (Trace.record tr ~corr:(t.corr msg) ~time:(Sim.now t.sim) ~src ~dst ~kind:(t.kind msg)
           ~bytes:nbytes ())
    | None -> None
  in
  let resolve outcome =
    (match t.metrics with
    | Some m ->
      Metrics.incr m
        (match outcome with
        | Trace.Delivered -> "net.delivered"
        | Trace.Dropped -> "net.dropped"
        | Trace.To_dead -> "net.to_dead"
        | Trace.In_flight -> "net.in_flight");
      if outcome = Trace.Delivered then Metrics.incr m ~by:nbytes "net.bytes.delivered"
    | None -> ());
    match event with Some e -> e.Trace.outcome <- outcome | None -> ()
  in
  if t.n_partitioned > 0 && partitioned t ~src ~dst then begin
    t.dropped <- t.dropped + 1;
    resolve Trace.Dropped
  end
  else if t.drop > 0.0 && Rng.bool t.rng ~p:t.drop then begin
    t.dropped <- t.dropped + 1;
    resolve Trace.Dropped
  end
  else begin
    let delay =
      if src = dst then 0.01
      else begin
        let l = Latency.sample t.latency ~src ~dst in
        if t.n_slow = 0 then l else l *. Float.max (slow_factor t src) (slow_factor t dst)
      end
    in
    let deliver () =
      if is_alive t dst then begin
        match t.handlers.(dst) with
        | Some handler ->
          t.delivered <- t.delivered + 1;
          t.bytes_delivered <- t.bytes_delivered + nbytes;
          resolve Trace.Delivered;
          handler ~src msg
        | None ->
          t.to_dead <- t.to_dead + 1;
          resolve Trace.To_dead
      end
      else begin
        t.to_dead <- t.to_dead + 1;
        resolve Trace.To_dead
      end
    in
    Sim.schedule t.sim ~delay (fun () ->
        (* Arrival. With a service model at [dst], the message takes a
           FIFO ticket behind whatever is queued or in service; delivery
           (the handler call) happens when its service slot completes.
           Aliveness is re-checked at delivery, so a peer dying with a
           backlog loses the backlog. *)
        let svc = if t.n_serviced = 0 || not (in_arena t dst) then 0.0 else t.svc_ms.(dst) in
        if svc <= 0.0 then deliver ()
        else if not (is_alive t dst) then begin
          t.to_dead <- t.to_dead + 1;
          resolve Trace.To_dead
        end
        else begin
          let now = Sim.now t.sim in
          let start = Float.max now t.busy_until.(dst) in
          let wait = start -. now in
          t.busy_until.(dst) <- start +. svc;
          t.qdepth.(dst) <- t.qdepth.(dst) + 1;
          (match t.metrics with
          | Some m ->
            Metrics.incr m "queue.msgs";
            if wait > 0.0 then Metrics.incr m "queue.delayed";
            Metrics.observe m "queue.wait_ms" wait;
            Metrics.observe m
              ~buckets:queue_depth_buckets
              "queue.depth"
              (float_of_int t.qdepth.(dst))
          | None -> ());
          (match t.tracer with
          | Some tr when wait > 0.0 ->
            Trace.mark tr ~time:now ~src:dst ~kind:"queue.wait" ()
          | _ -> ());
          Sim.schedule t.sim ~delay:(wait +. svc) (fun () ->
              t.qdepth.(dst) <- t.qdepth.(dst) - 1;
              deliver ())
        end)
  end

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    to_dead = t.to_dead;
    bytes_sent = t.bytes_sent;
    bytes_delivered = t.bytes_delivered;
  }

let reset_stats t =
  t.sent <- 0;
  t.delivered <- 0;
  t.dropped <- 0;
  t.to_dead <- 0;
  t.bytes_sent <- 0;
  t.bytes_delivered <- 0

let total_sent t = t.total_sent
let sim t = t.sim
let latency t = t.latency
