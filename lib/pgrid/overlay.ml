module Bitkey = Unistore_util.Bitkey
module Rng = Unistore_util.Rng
module Metrics = Unistore_obs.Metrics
module Shortcuts = Unistore_cache.Shortcuts
module Statcache = Unistore_cache.Statcache

type result = Request.result = {
  items : Store.item list;
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
  latency : float;
}

(* One in-network aggregation buffer for a shower range: the interior
   node that spawned [waiting] merges those children's hits into its own
   before replying to [agg_parent]. Shared (aliased) across the entries
   of [t.aggs] for its waiting tokens. *)
type agg = {
  agg_rid : int;
  agg_token : int;  (* the token echoed upward by the merged hit *)
  agg_parent : int;
  agg_origin : int;
  agg_owner : int;
  mutable waiting : int list;  (* child tokens not yet merged *)
  mutable carried : int list;  (* tokens announced upward unmerged *)
  mutable agg_items : Store.item list;
  mutable agg_hops : int;
  mutable flushed : bool;
}

type t = {
  sim : Sim.t;
  net : Message.t Net.t;
  rng : Rng.t;
  requests : Request.t;  (* pending operations, their timers and the rid counter *)
  (* Node arena: dense array indexed by peer id (ids are minted 0..n-1
     by Build/join). Replaces an id-keyed hashtable so the dispatcher
     and routing helpers resolve peers with one array probe. *)
  mutable node_arena : Node.t option array;
  mutable n_nodes : int;
  mutable max_node_id : int;
  (* Ascending node list, rebuilt lazily: gossip rounds walk it once per
     round; the arena only grows, so adds just invalidate. *)
  mutable nodes_cache : Node.t list option;
  aggs : (int, agg) Hashtbl.t;  (* child token -> its parent's buffer *)
  mutable read_observer : (origin:int -> Store.item list -> unit) option;
}

let create sim ~latency ~rng ?(drop = 0.0) ~config () =
  let rng = Rng.split rng in
  let net = Net.create sim ~latency ~rng ~drop ~size:Message.size ~kind:Message.kind ~corr:Message.corr () in
  {
    sim;
    net;
    rng;
    requests = Request.create ~net ~rng ~config;
    node_arena = [||];
    n_nodes = 0;
    max_node_id = -1;
    nodes_cache = None;
    aggs = Hashtbl.create 64;
    read_observer = None;
  }

let sim t = t.sim
let net t = t.net
let config t = Request.config t.requests
let rng t = t.rng
let set_metrics t m = Net.set_metrics t.net m
let metrics t = Net.metrics t.net
let set_read_observer t f = t.read_observer <- f

let find_node t id =
  if id >= 0 && id <= t.max_node_id then t.node_arena.(id) else None

let node t id =
  match find_node t id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Overlay.node: unknown peer %d" id)

let nodes t =
  match t.nodes_cache with
  | Some l -> l
  | None ->
    let l = ref [] in
    for id = t.max_node_id downto 0 do
      match t.node_arena.(id) with Some n -> l := n :: !l | None -> ()
    done;
    t.nodes_cache <- Some !l;
    !l

let node_count t = t.n_nodes

let depth t =
  let d = ref 0 in
  for id = 0 to t.max_node_id do
    match t.node_arena.(id) with
    | Some n -> d := max !d (Bitkey.length n.Node.path)
    | None -> ()
  done;
  !d

let responsible t key = List.filter (fun n -> Node.covers n key) (nodes t)

let kill t id = Net.kill t.net id
let revive t id = Net.revive t.net id
let alive t id = Net.is_alive t.net id

(* Swap the live parameter set (the traffic engine applies its
   balancing arm to an already-built deployment this way). Shortcut
   spread mode follows hot replication and is per-node cache state, so
   re-propagate it. *)
let set_config t config =
  Request.set_config t.requests config;
  List.iter
    (fun n -> Shortcuts.set_spread n.Node.shortcuts config.Config.hot_replication)
    (nodes t)

let fresh_rid t = Request.fresh_rid t.requests

(* ------------------------------------------------------------------ *)
(* Key intervals: inclusive lo, exclusive optional hi                   *)

let interval_intersect (lo1, hi1) (lo2, hi2) =
  let lo = if String.compare lo1 lo2 >= 0 then lo1 else lo2 in
  let hi =
    match (hi1, hi2) with
    | None, h | h, None -> h
    | Some a, Some b -> Some (if String.compare a b <= 0 then a else b)
  in
  match hi with Some h when String.compare lo h >= 0 -> None | _ -> Some (lo, hi)

(* Exclusive upper bound capturing all keys <= hi (no byte string lies
   strictly between hi and hi ^ "\x00"). *)
let after_inclusive hi = Some (hi ^ "\x00")

let cache_incr t ?by name =
  match metrics t with Some m -> Metrics.incr m ?by name | None -> ()

(* Crash a peer: unlike {!kill} (which merely stops message delivery
   and keeps state intact for {!revive}), a crash also loses the
   peer's volatile state — the whole store for in-memory backends, the
   torn log tail (a [keep_frac] fraction of log bytes survives) for the
   log backend, and any boost-replica copy. The peer stays dead until
   {!revive}; on revival, anti-entropy/{!Repair.round} reconcile the
   lost delta from the replica group. Returns the number of items that
   survived locally (log replay). *)
let crash t ?keep_frac id =
  let n = node t id in
  Net.kill t.net id;
  Node.clear_hot n;
  let recovered = Store.crash_restart ?keep_frac n.Node.store in
  Node.bump_epoch n;
  cache_incr t "fault.crash";
  recovered

(* Export per-backend storage footprint as gauges, summed over alive
   peers: [store.bytes] (the deterministic memory-model estimate, same
   counter the compression tests assert on), [store.items], and
   [store.log_bytes] (on-disk segment bytes; 0 unless the log backend
   is active). Called by benchmarks before snapshotting metrics. *)
let refresh_store_gauges t =
  match metrics t with
  | None -> ()
  | Some m ->
    let bytes = ref 0 and items = ref 0 and log_bytes = ref 0 in
    List.iter
      (fun n ->
        if Net.is_alive t.net n.Node.id then begin
          let s = Store.stats n.Node.store in
          bytes := !bytes + s.Store.bytes;
          items := !items + s.Store.triples;
          log_bytes := !log_bytes + Store.log_bytes n.Node.store
        end)
      (nodes t);
    Metrics.set_gauge m "store.bytes" (float_of_int !bytes);
    Metrics.set_gauge m "store.items" (float_of_int !items);
    Metrics.set_gauge m "store.log_bytes" (float_of_int !log_bytes)

(* Children buffered per aggregation node; additional children reply
   straight to the origin. *)
let agg_fanin = 8

(* Aggregation buffers flush partial merges after this long, so loss or
   churn below still terminates; well under the retry timeout. *)
let agg_flush_ms = 2_500.0

(* Send an aggregation buffer's merged hit upward. [reason] is
   ["complete"] (every buffered child answered) or ["timeout"] (loss or
   churn below): leftover waiting tokens travel as targets so the origin
   still accounts for them — their hits, if any straggle in later, find
   no buffer and are relayed home. *)
let flush_agg t (a : agg) ~reason =
  if not a.flushed then begin
    a.flushed <- true;
    List.iter (fun tok -> Hashtbl.remove t.aggs tok) a.waiting;
    if not (Net.is_alive t.net a.agg_owner) then
      (* The buffering peer was killed while holding child tokens: a dead
         peer cannot transmit its merged hit. Dropping the buffer (rather
         than sending from a corpse) leaves those tokens unanswered at
         the origin, whose own timeout then finishes the operation as
         explicitly partial — termination accounting never wedges on a
         crashed aggregator. *)
      cache_incr t "fault.agg.dead_flush"
    else begin
      cache_incr t ("batch.agg.flush." ^ reason);
      Net.send t.net ~src:a.agg_owner ~dst:a.agg_parent
        (Message.RangeHit
           {
             rid = a.agg_rid;
             token = a.agg_token;
             items = a.agg_items;
             targets = a.waiting @ a.carried;
             origin = a.agg_origin;
             hops = a.agg_hops;
           })
    end
  end

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

(* Replica failover: every ref at this level is dead, so stand in a live
   member of a dead ref's replica group. Replica-group membership spreads
   with the exchange/join gossip, so a peer plausibly knows its refs'
   replicas; P-Grid's own fault-tolerance story is exactly that any
   replica of the addressed region can serve. *)
let failover_candidates t refs =
  List.concat_map
    (fun r ->
      match find_node t r with
      | Some nd -> List.filter (Net.is_alive t.net) nd.Node.replicas
      | None -> [])
    refs
  |> List.sort_uniq compare

(* Peers are assumed to detect failures of their direct references (via
   keep-alive pings, as deployed DHTs do), so routing prefers alive refs;
   if every ref of a level looks dead we fail over to a live replica of
   one of them (and learn it as a ref); with no replica alive either we
   still try one, and the request times out and retries. *)
let choose_ref t (me : Node.t) level =
  let refs = Node.refs_at me level in
  let candidates, failing_over =
    match List.filter (Net.is_alive t.net) refs with
    | [] -> (
      match failover_candidates t refs with [] -> (refs, false) | alts -> (alts, true))
    | alive -> (alive, false)
  in
  let chosen =
    match candidates with
    | [] -> None
    | refs when (config t).proximity_routing ->
    let lat = Net.latency t.net in
      let best =
        List.fold_left
          (fun acc p ->
            let c = Latency.base lat ~src:me.id ~dst:p in
            match acc with Some (_, c0) when c0 <= c -> acc | _ -> Some (p, c))
          None refs
      in
      Option.map fst best
    | refs -> Some (Rng.pick_list t.rng refs)
  in
  (match chosen with
  | Some p when failing_over ->
    cache_incr t "retry.failover";
    (* Learn the stand-in as a real reference: routing self-heals instead
       of re-deriving the failover on every message. *)
    Node.add_ref me ~level p ~cap:(config t).refs_per_level
  | _ -> ());
  chosen

(* [`Local] if [me] covers [key]: greedy prefix routing forwards at the
   first level where the key branches away from [me]'s path. *)
let route_step t (me : Node.t) key =
  let len = Bitkey.length me.path in
  let rec go l =
    if l >= len then `Local
    else if Node.key_side me ~level:l key <> Bitkey.get me.path l then begin
      match choose_ref t me l with Some p -> `Forward p | None -> `Stuck
    end
    else go (l + 1)
  in
  go 0

let too_far t hops = hops >= (config t).max_hops

(* ------------------------------------------------------------------ *)
(* Routing shortcuts (lib/cache level 1)                               *)

(* Record that [peer] answered for [region] — called at the origin when
   a [Found]/[Ack] reply arrives. *)
let learn_shortcut t (me : Node.t) ~peer ~region:(lo, hi) =
  if peer <> me.Node.id && Shortcuts.capacity me.Node.shortcuts > 0 then begin
    Shortcuts.learn me.Node.shortcuts ~lo ~hi ~peer;
    cache_incr t "cache.shortcut.learn"
  end

(* Consult the origin's learned shortcuts for a single direct hop to the
   responsible peer. A hit pointing at a dead peer invalidates that
   peer's entries on the spot (the same failure-detection assumption as
   [choose_ref]'s alive filter). *)
let consult_shortcut t (me : Node.t) ~rid key =
  if Shortcuts.capacity me.Node.shortcuts = 0 then None
  else
    match Shortcuts.find me.Node.shortcuts ~key with
    | Some p when p <> me.Node.id && Net.is_alive t.net p ->
      cache_incr t "cache.shortcut.hit";
      Request.set_via t.requests rid p;
      Some p
    | Some p ->
      let n = Shortcuts.invalidate_peer me.Node.shortcuts p in
      cache_incr t ~by:(max 1 n) "cache.shortcut.invalidate";
      cache_incr t "cache.shortcut.miss";
      None
    | None ->
      cache_incr t "cache.shortcut.miss";
      None

(* One routing decision for single-destination requests: greedy prefix
   routing, with the origin's shortcut cache consulted on the first hop.
   A shortcut hit forwards straight to the learned responsible peer —
   one hop instead of O(depth) — and never revisits intermediate peers,
   so the [hops <= depth] bound still holds on the cached path. *)
let next_hop t (me : Node.t) ~rid ~origin ~hops key =
  match route_step t me key with
  | `Local -> `Local
  | (`Forward _ | `Stuck) as step -> (
    if me.id = origin && hops = 0 then
      match consult_shortcut t me ~rid key with Some p -> `Forward p | None -> step
    else step)

(* ------------------------------------------------------------------ *)
(* Handlers: each takes the acting node and may be invoked directly     *)
(* (origin-side) or from the message dispatcher.                        *)

(* The serving set an owner advertises on its replies: its current
   boost replicas (origins in spread mode learn them all and rotate). *)
let owner_spread t (me : Node.t) =
  if (config t).hot_replication && me.Node.boosts <> [] then me.Node.boosts else []

let handle_lookup t (me : Node.t) ~rid ~key ~origin ~hops =
  if Node.hot_covers me key then begin
    (* Boost replica: answer straight from the synced hot copy (state
       as of the last balance round — the same loose consistency as a
       replica missed by a rumor), advertising the full serving set so
       origins keep spreading. *)
    cache_incr t "balance.hot_serve";
    let items = Store.find me.hot_store key in
    let region = match me.hot_region with Some r -> r | None -> Node.region me in
    if me.id = origin then Request.answer t.requests rid ~items ~hops ()
    else
      Net.send t.net ~src:me.id ~dst:origin
        (Message.Found { rid; items; hops; region; spread = me.hot_spread })
  end
  else
    match next_hop t me ~rid ~origin ~hops key with
    | `Local ->
      let items = Store.find me.store key in
      if me.id = origin then Request.answer t.requests rid ~items ~hops ()
      else
        Net.send t.net ~src:me.id ~dst:origin
          (Message.Found { rid; items; hops; region = Node.region me; spread = owner_spread t me })
    | `Forward p when not (too_far t hops) ->
      Net.send t.net ~src:me.id ~dst:p (Message.Lookup { rid; key; origin; hops = hops + 1 })
    | `Forward _ | `Stuck -> ()

let handle_insert t (me : Node.t) ~rid ~item ~origin ~hops =
  match next_hop t me ~rid ~origin ~hops item.Store.key with
  | `Local ->
    if Store.put me.store item then Node.bump_epoch me;
    List.iter
      (fun r -> Net.send t.net ~src:me.id ~dst:r (Message.Replicate { item; rounds_left = 0 }))
      me.replicas;
    if me.id = origin then Request.answer t.requests rid ~items:[ item ] ~hops ()
    else
      Net.send t.net ~src:me.id ~dst:origin (Message.Ack { rid; hops; region = Node.region me })
  | `Forward p when not (too_far t hops) ->
    Net.send t.net ~src:me.id ~dst:p (Message.Insert { rid; item; origin; hops = hops + 1 })
  | `Forward _ | `Stuck -> ()

let handle_delete t (me : Node.t) ~rid ~key ~item_id ~origin ~hops =
  match next_hop t me ~rid ~origin ~hops key with
  | `Local ->
    Store.remove me.store ~key ~item_id;
    Node.bump_epoch me;
    List.iter
      (fun r -> Net.send t.net ~src:me.id ~dst:r (Message.Unreplicate { key; item_id }))
      me.replicas;
    if me.id = origin then Request.answer t.requests rid ~items:[] ~hops ()
    else
      Net.send t.net ~src:me.id ~dst:origin (Message.Ack { rid; hops; region = Node.region me })
  | `Forward p when not (too_far t hops) ->
    Net.send t.net ~src:me.id ~dst:p (Message.Delete { rid; key; item_id; origin; hops = hops + 1 })
  | `Forward _ | `Stuck -> ()

let handle_update t (me : Node.t) ~rid ~item ~origin ~hops ~rounds =
  match next_hop t me ~rid ~origin ~hops item.Store.key with
  | `Local ->
    if Store.put me.store item then Node.bump_epoch me;
    let targets = Rng.sample t.rng (config t).gossip_fanout me.replicas in
    List.iter
      (fun r -> Net.send t.net ~src:me.id ~dst:r (Message.Replicate { item; rounds_left = rounds }))
      targets;
    if me.id = origin then Request.answer t.requests rid ~items:[ item ] ~hops ()
    else
      Net.send t.net ~src:me.id ~dst:origin (Message.Ack { rid; hops; region = Node.region me })
  | `Forward p when not (too_far t hops) ->
    Net.send t.net ~src:me.id ~dst:p (Message.Update { rid; item; origin; hops = hops + 1; rounds })
  | `Forward _ | `Stuck -> ()

(* ------------------------------------------------------------------ *)
(* Batched operations (bulk insert / multi-key lookup)                  *)

(* Partition a batch at [me]: the share [me] covers locally, plus one
   group per first-divergence level, mirroring [route_step] per key. One
   forwarded message per touched subtree replaces one routed message per
   item. *)
let split_batch (me : Node.t) ~key_of xs =
  let len = Bitkey.length me.Node.path in
  let local = ref [] in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun x ->
      let key = key_of x in
      let rec go l =
        if l >= len then local := x :: !local
        else if Node.key_side me ~level:l key <> Bitkey.get me.Node.path l then begin
          match Hashtbl.find_opt groups l with
          | Some r -> r := x :: !r
          | None -> Hashtbl.add groups l (ref [ x ])
        end
        else go (l + 1)
      in
      go 0)
    xs;
  let forwards =
    Hashtbl.fold (fun l r acc -> (l, List.rev !r) :: acc) groups []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  in
  (List.rev !local, forwards)

(* A region's [AckBatch]/[MultiFound] arrived at the batch origin [me]:
   learn a shortcut to the responding region and resolve its keys. *)
let deliver_batch_ack t (me : Node.t) rid ~from ~found ~region ~hops =
  if Request.live t.requests rid then begin
    learn_shortcut t me ~peer:from ~region;
    Request.ack t.requests rid ~found ~hops
  end

let batch_observe t name n =
  match metrics t with
  | Some m -> Metrics.observe m ~buckets:Request.fanout_buckets name (float_of_int n)
  | None -> ()

let handle_insert_batch t (me : Node.t) ~rid ~items ~origin ~hops =
  let local, forwards = split_batch me ~key_of:(fun (i : Store.item) -> i.Store.key) items in
  if local <> [] then begin
    let changed = ref false in
    List.iter (fun i -> if Store.put me.store i then changed := true) local;
    if !changed then Node.bump_epoch me;
    (* Batched replication: one [SyncItems] per replica instead of one
       [Replicate] per item per replica. *)
    List.iter
      (fun r -> Net.send t.net ~src:me.id ~dst:r (Message.SyncItems { items = local }))
      me.replicas;
    let keys =
      List.sort_uniq String.compare (List.map (fun (i : Store.item) -> i.Store.key) local)
    in
    cache_incr t ~by:((List.length local - 1) * Message.header) "batch.bytes.saved";
    if me.id = origin then
      deliver_batch_ack t me rid ~from:me.id
        ~found:(List.map (fun k -> (k, [])) keys)
        ~region:(Node.region me) ~hops
    else
      Net.send t.net ~src:me.id ~dst:origin
        (Message.AckBatch { rid; keys; region = Node.region me; hops })
  end;
  if not (too_far t hops) then
    List.iter
      (fun (level, group) ->
        match choose_ref t me level with
        | Some p ->
          cache_incr t "batch.bulk.batches";
          batch_observe t "batch.bulk.size" (List.length group);
          Net.send t.net ~src:me.id ~dst:p
            (Message.InsertBatch { rid; items = group; origin; hops = hops + 1 })
        | None -> ())
      forwards

let handle_multi_lookup t (me : Node.t) ~rid ~keys ~origin ~hops =
  let local, forwards = split_batch me ~key_of:(fun k -> k) keys in
  if local <> [] then begin
    let found = List.map (fun key -> (key, Store.find me.store key)) local in
    cache_incr t ~by:((List.length local - 1) * Message.header) "batch.bytes.saved";
    if me.id = origin then deliver_batch_ack t me rid ~from:me.id ~found ~region:(Node.region me) ~hops
    else
      Net.send t.net ~src:me.id ~dst:origin
        (Message.MultiFound { rid; found; region = Node.region me; hops })
  end;
  if not (too_far t hops) then
    List.iter
      (fun (level, group) ->
        match choose_ref t me level with
        | Some p ->
          cache_incr t "batch.probe.batches";
          batch_observe t "batch.probe.size" (List.length group);
          Net.send t.net ~src:me.id ~dst:p
            (Message.MultiLookup { rid; keys = group; origin; hops = hops + 1 })
        | None -> ())
      forwards

(* The shower split of the clip at [me]: one (ref, sub-clip) per
   complementary subtree intersecting it, computed level by level from
   [me]'s own split boundaries — plus one [Message.hop_limited] target
   per such sub-clip when the hop limit forbids forwarding any. *)
let shower_splits t (me : Node.t) ~hops ~clip_lo ~clip_hi =
  let acc = ref [] and cut = ref [] in
  let len = Bitkey.length me.path in
  let plo = ref "" and phi = ref None in
  for l = 0 to len - 1 do
    let boundary = me.splits.(l) in
    let mybit = Bitkey.get me.path l in
    let sibling = if mybit then (!plo, Some boundary) else (boundary, !phi) in
    (match interval_intersect (clip_lo, clip_hi) sibling with
    | Some _ when too_far t hops -> cut := Message.hop_limited :: !cut
    | Some (lo', hi') -> (
      match choose_ref t me l with Some p -> acc := (p, lo', hi') :: !acc | None -> ())
    | None -> ());
    if mybit then plo := boundary else phi := Some boundary
  done;
  (List.rev !acc, !cut)

(* Shower probe processing: partition the clip among my own region and my
   complementary subtrees, forward each non-empty sub-clip to one
   reference of that subtree, answer my own region locally. *)
let process_shower t (me : Node.t) ~rid ~token ~origin ~hops ~clip_lo ~clip_hi ~local ~forward =
  let splits, cut = shower_splits t me ~hops ~clip_lo ~clip_hi in
  let targets =
    List.map
      (fun (p, lo', hi') ->
        let tok = fresh_rid t in
        forward ~dst:p ~token:tok ~clip_lo:lo' ~clip_hi:hi';
        tok)
      splits
    @ cut
  in
  let items = local () in
  if me.id = origin then Request.hit t.requests rid ~from:me.id ~token ~items ~targets ~hops
  else
    Net.send t.net ~src:me.id ~dst:origin
      (Message.RangeHit { rid; token; items; targets; origin; hops })

let handle_range t (me : Node.t) ~rid ~token ~lo ~hi ~clip_lo ~clip_hi ~origin ~reply_to ~hops
    ~strategy ~budget =
  match (strategy : Message.range_strategy) with
  | Shower -> (
    let forward ~reply_to ~dst ~token ~clip_lo ~clip_hi =
      Net.send t.net ~src:me.id ~dst
        (Message.Range
           {
             rid;
             token;
             lo;
             hi;
             clip_lo;
             clip_hi;
             origin;
             reply_to;
             hops = hops + 1;
             strategy;
             budget;
           })
    in
    if me.id = origin then
      (* Top of the split tree: children reply straight to the origin's
         token accounting. *)
      process_shower t me ~rid ~token ~origin ~hops ~clip_lo ~clip_hi
        ~local:(fun () -> Store.range me.store ~lo ~hi)
        ~forward:(forward ~reply_to:origin)
    else
      let splits, cut = shower_splits t me ~hops ~clip_lo ~clip_hi in
      let items = Store.range me.store ~lo ~hi in
      match (items, splits) with
      | [], [ (p, lo', hi') ] ->
        (* Path compression: nothing local and a single subtree — pass my
           token through and let the child answer whom I would have; my
           own (empty) hit is elided entirely. *)
        cache_incr t "batch.agg.elided";
        cache_incr t ~by:Message.header "batch.bytes.saved";
        forward ~dst:p ~token ~clip_lo:lo' ~clip_hi:hi' ~reply_to
      | _, [] ->
        (* Leaf of the split tree (or cut off by the hop limit): reply to
           my parent, fully merged. *)
        Net.send t.net ~src:me.id ~dst:reply_to
          (Message.RangeHit { rid; token; items; targets = cut; origin; hops })
      | _, _ ->
        (* Interior node: buffer up to [agg_fanin] children and merge
           their hits into mine before replying upward; overflow children
           reply straight to the origin and their tokens travel upward
           unmerged. *)
        let tagged =
          List.mapi
            (fun i (p, lo', hi') ->
              let tok = fresh_rid t in
              let buffered = i < agg_fanin in
              forward ~dst:p ~token:tok ~clip_lo:lo' ~clip_hi:hi'
                ~reply_to:(if buffered then me.id else origin);
              (tok, buffered))
            splits
        in
        let waiting = List.filter_map (fun (tok, b) -> if b then Some tok else None) tagged in
        let carried = List.filter_map (fun (tok, b) -> if b then None else Some tok) tagged in
        if carried <> [] then cache_incr t ~by:(List.length carried) "batch.agg.overflow";
        let a =
          {
            agg_rid = rid;
            agg_token = token;
            agg_parent = reply_to;
            agg_origin = origin;
            agg_owner = me.id;
            waiting;
            carried;
            agg_items = items;
            agg_hops = hops;
            flushed = false;
          }
        in
        List.iter (fun tok -> Hashtbl.replace t.aggs tok a) waiting;
        Sim.schedule t.sim ~delay:agg_flush_ms (fun () -> flush_agg t a ~reason:"timeout"))
  | Sequential ->
    (* Every receiving peer reports a hit (routing-only peers report an
       empty one naming their next hop) so the origin's termination
       tracking stays exact. *)
    let emit items targets =
      if me.id = origin then Request.hit t.requests rid ~from:me.id ~token ~items ~targets ~hops
      else
        Net.send t.net ~src:me.id ~dst:origin
          (Message.RangeHit { rid; token; items; targets; origin; hops })
    in
    if not (Node.covers me clip_lo) then begin
      (* Still routing toward the low end of the remaining range. *)
      match route_step t me clip_lo with
      | `Forward p when not (too_far t hops) ->
        let tok = fresh_rid t in
        Net.send t.net ~src:me.id ~dst:p
          (Message.Range
             {
               rid;
               token = tok;
               lo;
               hi;
               clip_lo;
               clip_hi;
               origin;
               reply_to = origin;
               hops = hops + 1;
               strategy;
               budget;
             });
        emit [] [ tok ]
      | `Forward _ -> emit [] [ Message.hop_limited ]
      | `Local | `Stuck -> emit [] []
    end
    else begin
      let items = Store.range me.store ~lo ~hi in
      (* Key order = value order (order-preserving encodings), so a
         result budget lets top-N traversals stop early. *)
      let items, budget_left =
        match budget with
        | None -> (items, None)
        | Some b ->
          let kept = List.filteri (fun i _ -> i < b) items in
          (kept, Some (b - List.length kept))
      in
      let _, region_hi = Node.region me in
      let continue_key =
        match region_hi with
        | Some h when String.compare h hi <= 0 -> Some h
        | _ -> None
      in
      let exhausted = match budget_left with Some b when b <= 0 -> true | _ -> false in
      let targets =
        match continue_key with
        | None -> []
        | Some _ when exhausted -> []
        | Some _ when too_far t hops -> [ Message.hop_limited ]
        | Some nxt -> (
          match route_step t me nxt with
          | `Forward p ->
            let tok = fresh_rid t in
            Net.send t.net ~src:me.id ~dst:p
              (Message.Range
                 {
                   rid;
                   token = tok;
                   lo;
                   hi;
                   clip_lo = nxt;
                   clip_hi;
                   origin;
                   reply_to = origin;
                   hops = hops + 1;
                   strategy;
                   budget = budget_left;
                 });
            [ tok ]
          | `Local | `Stuck -> [])
      in
      emit items targets
    end

let handle_probe t (me : Node.t) ~rid ~token ~clip_lo ~clip_hi ~origin ~hops ~pred ~reduce =
  let local () =
    let acc = ref [] in
    Store.iter me.store (fun i -> if pred i then acc := i :: !acc);
    (* Leaf-side partial reduction (e.g. a local skyline): items the
       reducer drops never cross the network. *)
    match reduce with
    | None -> !acc
    | Some f ->
      let before = !acc in
      let after = f before in
      let saved =
        List.fold_left (fun b i -> b + Store.item_bytes i) 0 before
        - List.fold_left (fun b i -> b + Store.item_bytes i) 0 after
      in
      if saved > 0 then cache_incr t ~by:saved "probe.reduce.bytes.saved";
      after
  in
  let forward ~dst ~token ~clip_lo ~clip_hi =
    Net.send t.net ~src:me.id ~dst
      (Message.Probe { rid; token; clip_lo; clip_hi; origin; hops = hops + 1; pred; reduce })
  in
  process_shower t me ~rid ~token ~origin ~hops ~clip_lo ~clip_hi ~local ~forward

(* ------------------------------------------------------------------ *)
(* Replica synchronization (rumor spreading + anti-entropy)             *)

let handle_replicate t (me : Node.t) ~item ~rounds_left =
  let changed = Store.put me.store item in
  if changed then Node.bump_epoch me;
  if changed && rounds_left > 0 && me.replicas <> [] then begin
    let targets = Rng.sample t.rng (config t).gossip_fanout me.replicas in
    List.iter
      (fun r ->
        Net.send t.net ~src:me.id ~dst:r (Message.Replicate { item; rounds_left = rounds_left - 1 }))
      targets
  end

let handle_sync t ~(me : Node.t) ~src msg =
  match (msg : Message.t) with
  | SyncDigest { digest } ->
    let theirs = Hashtbl.create (List.length digest) in
    List.iter (fun (k, id, v) -> Hashtbl.replace theirs (k, id) v) digest;
    (* Items they are missing or hold stale. *)
    let to_send = ref [] in
    Store.iter me.store (fun i ->
        match Hashtbl.find_opt theirs (i.key, i.item_id) with
        | Some v when v >= i.version -> ()
        | _ -> to_send := i :: !to_send);
    if !to_send <> [] then Net.send t.net ~src:me.id ~dst:src (Message.SyncItems { items = !to_send });
    (* Items I am missing or hold stale. *)
    let wanted =
      List.filter_map
        (fun (k, id, v) ->
          let mine = Store.find me.store k in
          match List.find_opt (fun (i : Store.item) -> String.equal i.item_id id) mine with
          | Some i when i.version >= v -> None
          | _ -> Some (k, id))
        digest
    in
    if wanted <> [] then Net.send t.net ~src:me.id ~dst:src (Message.SyncRequest { wanted })
  | SyncRequest { wanted } ->
    let items =
      List.filter_map
        (fun (k, id) ->
          List.find_opt (fun (i : Store.item) -> String.equal i.item_id id) (Store.find me.store k))
        wanted
    in
    if items <> [] then Net.send t.net ~src:me.id ~dst:src (Message.SyncItems { items })
  | SyncItems { items } ->
    List.iter (fun i -> if Store.put me.store i then Node.bump_epoch me) items
  | _ -> invalid_arg "Overlay.handle_sync: not a sync message"

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)

let dispatch t (me : Node.t) ~src msg =
  match (msg : Message.t) with
  | Lookup { rid; key; origin; hops } ->
    Node.bump_served me;
    handle_lookup t me ~rid ~key ~origin ~hops
  | Insert { rid; item; origin; hops } ->
    Node.bump_served me;
    handle_insert t me ~rid ~item ~origin ~hops
  | Update { rid; item; origin; hops; rounds } ->
    Node.bump_served me;
    handle_update t me ~rid ~item ~origin ~hops ~rounds
  | Found { rid; items; hops; region; spread } ->
    learn_shortcut t me ~peer:src ~region;
    List.iter (fun p -> if p <> src then learn_shortcut t me ~peer:p ~region) spread;
    Request.answer t.requests rid ~from:src ~items ~hops ()
  | Ack { rid; hops; region } ->
    learn_shortcut t me ~peer:src ~region;
    Request.answer t.requests rid ~from:src ~items:[] ~hops ()
  | Range { rid; token; lo; hi; clip_lo; clip_hi; origin; reply_to; hops; strategy; budget } ->
    Node.bump_served me;
    handle_range t me ~rid ~token ~lo ~hi ~clip_lo ~clip_hi ~origin ~reply_to ~hops ~strategy
      ~budget
  | RangeHit { rid; token; items; targets; origin; hops } -> (
    match Hashtbl.find_opt t.aggs token with
    | Some a ->
      (* A buffered child answered: merge its hit into the buffer. *)
      Hashtbl.remove t.aggs token;
      a.waiting <- List.filter (fun x -> x <> token) a.waiting;
      a.carried <- List.rev_append targets a.carried;
      a.agg_items <- List.rev_append items a.agg_items;
      a.agg_hops <- max a.agg_hops hops;
      cache_incr t "batch.agg.merged";
      if a.waiting = [] then flush_agg t a ~reason:"complete"
    | None ->
      if me.id = origin then Request.hit t.requests rid ~from:src ~token ~items ~targets ~hops
      else begin
        (* No buffer (it already flushed on timeout): relay the straggler
           home so the origin's accounting still sees its token. *)
        cache_incr t "batch.agg.relayed";
        Net.send t.net ~src:me.id ~dst:origin
          (Message.RangeHit { rid; token; items; targets; origin; hops })
      end)
  | InsertBatch { rid; items; origin; hops } ->
    Node.bump_served me;
    handle_insert_batch t me ~rid ~items ~origin ~hops
  | AckBatch { rid; keys; region; hops } ->
    deliver_batch_ack t me rid ~from:src ~found:(List.map (fun k -> (k, [])) keys) ~region ~hops
  | MultiLookup { rid; keys; origin; hops } ->
    Node.bump_served me;
    handle_multi_lookup t me ~rid ~keys ~origin ~hops
  | MultiFound { rid; found; region; hops } ->
    deliver_batch_ack t me rid ~from:src ~found ~region ~hops
  | Probe { rid; token; clip_lo; clip_hi; origin; hops; pred; reduce } ->
    Node.bump_served me;
    handle_probe t me ~rid ~token ~clip_lo ~clip_hi ~origin ~hops ~pred ~reduce
  | Replicate { item; rounds_left } -> handle_replicate t me ~item ~rounds_left
  | Delete { rid; key; item_id; origin; hops } ->
    Node.bump_served me;
    handle_delete t me ~rid ~key ~item_id ~origin ~hops
  | Unreplicate { key; item_id } ->
    Store.remove me.store ~key ~item_id;
    Node.bump_epoch me
  | StatGossip { summaries } ->
    List.iter
      (fun s -> if Statcache.merge me.stat_cache s then cache_incr t "cache.stats.merged")
      summaries
  | HotSync { region; owner; spread; items; retire } ->
    if retire then begin
      Node.clear_hot me;
      cache_incr t "balance.retire_recv"
    end
    else begin
      (* (Re)install the boost copy wholesale: each balance round ships
         the owner's current region content, so staleness is bounded by
         the control-loop interval. *)
      Store.clear me.hot_store;
      List.iter (fun it -> ignore (Store.put me.hot_store it)) items;
      me.hot_region <- Some region;
      me.hot_owner <- owner;
      me.hot_spread <- spread;
      cache_incr t "balance.sync_recv"
    end
  | Task { run; _ } -> run me.id
  | Exchange { run; _ } -> run me.id
  | (SyncDigest _ | SyncRequest _ | SyncItems _) as m -> handle_sync t ~me ~src m

let add_node t id =
  if id < 0 then invalid_arg "Overlay.add_node: negative id";
  if find_node t id <> None then invalid_arg "Overlay.add_node: duplicate id";
  let cap = Array.length t.node_arena in
  if id >= cap then begin
    let ncap = max (id + 1) (max 64 (cap * 2)) in
    let arena = Array.make ncap None in
    Array.blit t.node_arena 0 arena 0 cap;
    t.node_arena <- arena
  end;
  let config = config t in
  let n = Node.create ~backend:config.Config.store_backend id in
  Shortcuts.set_capacity n.Node.shortcuts config.shortcut_capacity;
  Shortcuts.set_spread n.Node.shortcuts config.hot_replication;
  t.node_arena.(id) <- Some n;
  t.n_nodes <- t.n_nodes + 1;
  if id > t.max_node_id then t.max_node_id <- id;
  t.nodes_cache <- None;
  Net.register t.net id (fun ~src msg -> dispatch t n ~src msg);
  n

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)

(* Register a request from [origin] and send its first attempt:
   [send me rid] runs at the origin node [me], now and on every retry. *)
let start t ~op ~origin kind ~k send =
  let me = node t origin in
  Request.start t.requests ~op ~origin:me kind ~k ~send:(send me)

let insert t ~origin ~key ~item_id ~payload ?(version = 0) ~k () =
  let item = { Store.key; item_id; payload; version } in
  start t ~op:"insert" ~origin Single ~k (fun me rid -> handle_insert t me ~rid ~item ~origin ~hops:0)

let update t ~origin ~key ~item_id ~payload ~version ?(rounds = 3) ~k () =
  let item = { Store.key; item_id; payload; version } in
  start t ~op:"update" ~origin Single ~k (fun me rid ->
      handle_update t me ~rid ~item ~origin ~hops:0 ~rounds)

let delete t ~origin ~key ~item_id ~k =
  start t ~op:"delete" ~origin Single ~k (fun me rid ->
      handle_delete t me ~rid ~key ~item_id ~origin ~hops:0)

(* Successful lookups feed the read observer before [k] runs. *)
let lookup t ~origin ~key ~k =
  let k r =
    (match t.read_observer with Some f when r.complete -> f ~origin r.items | _ -> ());
    k r
  in
  start t ~op:"lookup" ~origin Single ~k (fun me rid -> handle_lookup t me ~rid ~key ~origin ~hops:0)

(* A shower's first token is minted on every (re-)send, after its rid. *)
let range t ~origin ?(strategy = Message.Shower) ?budget ~lo ~hi ~k () =
  (match (budget, strategy) with
  | Some _, Message.Shower -> invalid_arg "Overlay.range: budget requires Sequential"
  | _ -> ());
  start t ~op:"range" ~origin Shower ~k (fun me rid ->
      handle_range t me ~rid ~token:(fresh_rid t) ~lo ~hi ~clip_lo:lo ~clip_hi:(after_inclusive hi)
        ~origin ~reply_to:origin ~hops:0 ~strategy ~budget)

let prefix t ~origin ~prefix:p ~k =
  (* All keys extending [p]: inclusive bounds for local filtering, and the
     exclusive clip just past the last extension. *)
  let hi = p ^ String.make 64 '\xff' in
  start t ~op:"prefix" ~origin Shower ~k (fun me rid ->
      handle_range t me ~rid ~token:(fresh_rid t) ~lo:p ~hi ~clip_lo:p ~clip_hi:(after_inclusive hi)
        ~origin ~reply_to:origin ~hops:0 ~strategy:Message.Shower ~budget:None)

(* Bulk insert: ship the whole (sorted) batch as one [InsertBatch] that
   splits shower-style down the trie; every covering region stores its
   share and acks it once. Timeouts selectively retransmit only the
   still-unacked items. *)
let bulk_insert t ~origin ~items ~k =
  match items with
  | [] -> k Request.empty
  | _ ->
    let items =
      List.sort (fun (a : Store.item) b -> String.compare a.Store.key b.Store.key) items
    in
    let keys = List.map (fun (i : Store.item) -> i.Store.key) items in
    start t ~op:"bulk-insert" ~origin (Batch { keys; on_ack = (fun _ _ -> ()) }) ~k (fun me rid ->
        let unacked = Request.unacked t.requests rid in
        match List.filter (fun (i : Store.item) -> unacked i.Store.key) items with
        | [] -> ()
        | remaining -> handle_insert_batch t me ~rid ~items:remaining ~origin ~hops:0)

(* Batched point lookups for bind-join probes: deduplicated keys travel
   as one [MultiLookup] that splits by responsible region; each region
   answers once. [k] receives the per-key answers alongside the combined
   result. *)
let multi_lookup t ~origin ~keys ~k =
  match keys with
  | [] -> k ([], Request.empty)
  | _ ->
    let keys = List.sort_uniq String.compare keys in
    let found = Hashtbl.create (List.length keys) in
    let k r =
      k (List.map (fun key -> (key, Option.value (Hashtbl.find_opt found key) ~default:[])) keys, r)
    in
    start t ~op:"multi-lookup" ~origin (Batch { keys; on_ack = Hashtbl.replace found }) ~k
      (fun me rid ->
        match List.filter (Request.unacked t.requests rid) keys with
        | [] -> ()
        | remaining -> handle_multi_lookup t me ~rid ~keys:remaining ~origin ~hops:0)

(* [lo]/[hi] clip the probe to one key region (e.g. a single index
   family) instead of flooding the whole trie; [reduce] runs at each
   leaf over its matched items before the reply travels. *)
let broadcast t ~origin ?(lo = "") ?hi ?reduce ~pred ~k () =
  start t ~op:"broadcast" ~origin Shower ~k (fun me rid ->
      handle_probe t me ~rid ~token:(fresh_rid t) ~clip_lo:lo ~clip_hi:hi ~origin ~hops:0 ~pred
        ~reduce)

let send_task t ~src ~dst ~bytes run = Net.send t.net ~src ~dst (Message.Task { bytes; run })

(* Exposed for fault tests: peers currently holding an unflushed
   aggregation buffer (interior nodes of in-flight shower ranges). *)
let agg_owners t =
  Hashtbl.fold (fun _ a acc -> if a.flushed then acc else a.agg_owner :: acc) t.aggs []
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Synchronous wrappers                                                *)

(* Drive the simulator until [f]'s continuation fires; [unfinished] if
   the event queue drains first. *)
let await_or t ~unfinished f =
  let cell = ref None in
  f (fun r -> cell := Some r);
  ignore (Sim.run_until t.sim (fun () -> !cell <> None));
  Option.value !cell ~default:unfinished

let await t f = await_or t ~unfinished:Request.unfinished f

let insert_sync t ~origin ~key ~item_id ~payload ?version () =
  await t (fun k -> insert t ~origin ~key ~item_id ~payload ?version ~k ())

let lookup_sync t ~origin ~key = await t (fun k -> lookup t ~origin ~key ~k)

let delete_sync t ~origin ~key ~item_id = await t (fun k -> delete t ~origin ~key ~item_id ~k)

let update_sync t ~origin ~key ~item_id ~payload ~version ?rounds () =
  await t (fun k -> update t ~origin ~key ~item_id ~payload ~version ?rounds ~k ())

let range_sync t ~origin ?strategy ?budget ~lo ~hi () =
  await t (fun k -> range t ~origin ?strategy ?budget ~lo ~hi ~k ())

let prefix_sync t ~origin ~prefix:p = await t (fun k -> prefix t ~origin ~prefix:p ~k)
let broadcast_sync t ~origin ~pred = await t (fun k -> broadcast t ~origin ~pred ~k ())

let bulk_insert_sync t ~origin ~items = await t (fun k -> bulk_insert t ~origin ~items ~k)

let multi_lookup_sync t ~origin ~keys =
  await_or t ~unfinished:([], Request.unfinished) (fun k -> multi_lookup t ~origin ~keys ~k)
