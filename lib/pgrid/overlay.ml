(* The P-Grid overlay's message dispatcher and public operations. The
   state record and the forwarding paths of routed messages are in
   {!Routing}, showers and their aggregation in {!Shower}; this file
   holds what a peer does with a message it owns. *)

open Routing
module Statcache = Unistore_cache.Statcache

type t = Routing.t

type result = Request.result = {
  items : Store.item list;
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
  latency : float;
}

let create = Routing.create
let config = Routing.config
let metrics = Routing.metrics
let split_batch = Routing.split_batch
let agg_owners = Shower.agg_owners
let sim t = t.sim
let net t = t.net
let rng t = t.rng
let set_metrics t m = Net.set_metrics t.net m
let set_read_observer t f = t.read_observer <- f

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

(* Crash a peer: unlike {!kill} (which merely stops message delivery
   and keeps state intact for {!revive}), a crash also loses the
   peer's volatile state — the whole store without a journal, the
   torn journal tail (a [keep_frac] fraction of its bytes survives)
   with one, and any boost-replica copy. The peer stays dead until
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

(* Export the per-peer stores' footprint as gauges, summed over alive
   peers: [store.bytes] (the deterministic memory-model estimate, same
   counter the compression tests assert on), [store.items], and
   [store.log_bytes] (on-disk journal bytes; 0 unless the stores
   journal). Called by benchmarks before snapshotting metrics. *)
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

(* ------------------------------------------------------------------ *)
(* Handlers: each takes the acting node and may be invoked directly     *)
(* (origin-side) or from the message dispatcher.                        *)

let send_all t (me : Node.t) peers msg =
  List.iter (fun p -> Net.send t.net ~src:me.id ~dst:p msg) peers

(* The serving set an owner advertises on its replies: its current
   boost replicas (origins in spread mode learn them all and rotate). *)
let owner_spread t (me : Node.t) =
  if (config t).hot_replication && me.Node.boosts <> [] then me.Node.boosts else []

let handle_lookup t (me : Node.t) ~rid ~key ~origin ~hops =
  let reply items ~region ~spread =
    if me.id = origin then Request.answer t.requests rid ~items ~hops ()
    else Net.send t.net ~src:me.id ~dst:origin (Message.Found { rid; items; hops; region; spread })
  in
  if Node.hot_covers me key then begin
    (* Boost replica: answer straight from the synced hot copy (state
       as of the last balance round — the same loose consistency as a
       replica missed by a rumor), advertising the full serving set so
       origins keep spreading. *)
    cache_incr t "balance.hot_serve";
    let region = match me.hot_region with Some r -> r | None -> Node.region me in
    reply (Store.find me.hot_store key) ~region ~spread:me.hot_spread
  end
  else
    route t me ~rid ~origin ~hops key
      ~local:(fun () ->
        reply (Store.find me.store key) ~region:(Node.region me) ~spread:(owner_spread t me))
      ~forward:(fun hops -> Message.Lookup { rid; key; origin; hops })

(* A routed write is answered once it is applied at its owner: the
   origin answers itself, any other origin gets an [Ack] carrying the
   owner's region. *)
let ack t (me : Node.t) ~rid ~origin ~hops ~items =
  if me.id = origin then Request.answer t.requests rid ~items ~hops ()
  else Net.send t.net ~src:me.id ~dst:origin (Message.Ack { rid; hops; region = Node.region me })

let handle_insert t (me : Node.t) ~rid ~item ~origin ~hops =
  route t me ~rid ~origin ~hops item.Store.key
    ~local:(fun () ->
      if Store.put me.store item then begin
        Node.bump_epoch me;
        send_all t me me.replicas (Message.Replicate { item; rounds_left = 0 })
      end;
      ack t me ~rid ~origin ~hops ~items:[ item ])
    ~forward:(fun hops -> Message.Insert { rid; item; origin; hops })

let handle_delete t (me : Node.t) ~rid ~key ~item_id ~origin ~hops =
  route t me ~rid ~origin ~hops key
    ~local:(fun () ->
      Store.remove me.store ~key ~item_id;
      Node.bump_epoch me;
      send_all t me me.replicas (Message.Unreplicate { key; item_id });
      ack t me ~rid ~origin ~hops ~items:[])
    ~forward:(fun hops -> Message.Delete { rid; key; item_id; origin; hops })

let handle_update t (me : Node.t) ~rid ~item ~origin ~hops ~rounds =
  route t me ~rid ~origin ~hops item.Store.key
    ~local:(fun () ->
      if Store.put me.store item then begin
        Node.bump_epoch me;
        send_all t me
          (Rng.sample t.rng gossip_fanout me.replicas)
          (Message.Replicate { item; rounds_left = rounds })
      end;
      ack t me ~rid ~origin ~hops ~items:[ item ])
    ~forward:(fun hops -> Message.Update { rid; item; origin; hops; rounds })

(* Rumor spreading: a replica that learned something new passes it on
   while rounds are left. *)
let handle_replicate t (me : Node.t) ~item ~rounds_left =
  let changed = Store.put me.store item in
  if changed then Node.bump_epoch me;
  if changed && rounds_left > 0 && me.replicas <> [] then
    send_all t me
      (Rng.sample t.rng gossip_fanout me.replicas)
      (Message.Replicate { item; rounds_left = rounds_left - 1 })

(* A region's [AckBatch]/[MultiFound] arrived at the batch origin [me]:
   learn a shortcut to the responding region and resolve its keys. *)
let deliver_batch_ack t (me : Node.t) rid ~from ~found ~region ~hops =
  if Request.live t.requests rid then begin
    learn_shortcut t me ~peer:from ~region;
    Request.ack t.requests rid ~found ~hops
  end

(* A region answers its [n]-element share of a batch once: at the origin
   straight into the accounting, elsewhere as [reply region]. *)
let ack_batch t (me : Node.t) ~rid ~origin ~hops ~n ~found ~reply =
  cache_incr t ~by:((n - 1) * Message.header) "batch.bytes.saved";
  let region = Node.region me in
  if me.id = origin then deliver_batch_ack t me rid ~from:me.id ~found ~region ~hops
  else Net.send t.net ~src:me.id ~dst:origin (reply region)

let handle_insert_batch t (me : Node.t) ~rid ~items ~origin ~hops =
  let key_of (i : Store.item) = i.Store.key in
  route_batch t me ~hops ~key_of ~batches:"batch.bulk.batches" ~sizes:"batch.bulk.size" items
    ~local:(fun local ->
      (* Batched replication of what changed the store: one [SyncItems]
         per replica instead of one [Replicate] per item per replica. *)
      (match List.filter (Store.put me.store) local with
      | [] -> ()
      | changed ->
        Node.bump_epoch me;
        send_all t me me.replicas (Message.SyncItems { items = changed }));
      let keys = List.sort_uniq String.compare (List.map key_of local) in
      ack_batch t me ~rid ~origin ~hops ~n:(List.length local)
        ~found:(List.map (fun k -> (k, [])) keys)
        ~reply:(fun region -> Message.AckBatch { rid; keys; region; hops }))
    ~forward:(fun items hops -> Message.InsertBatch { rid; items; origin; hops })

let handle_multi_lookup t (me : Node.t) ~rid ~keys ~origin ~hops =
  route_batch t me ~hops ~key_of:Fun.id ~batches:"batch.probe.batches" ~sizes:"batch.probe.size"
    keys
    ~local:(fun local ->
      let found = List.map (fun key -> (key, Store.find me.store key)) local in
      ack_batch t me ~rid ~origin ~hops ~n:(List.length local) ~found
        ~reply:(fun region -> Message.MultiFound { rid; found; region; hops }))
    ~forward:(fun keys hops -> Message.MultiLookup { rid; keys; origin; hops })

(* The version [me] holds of item [id] under [key], if any. *)
let held (me : Node.t) key id =
  List.find_opt (fun (i : Store.item) -> String.equal i.item_id id) (Store.find me.store key)

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
  | Range r ->
    Node.bump_served me;
    Shower.handle_range t me r
  | RangeHit { rid; token; items; targets; origin; hops } ->
    Shower.handle_hit t me ~src ~rid ~token ~items ~targets ~origin ~hops
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
    Shower.handle_probe t me ~rid ~token ~clip_lo ~clip_hi ~origin ~hops ~pred ~reduce
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
  (* Anti-entropy ({!Gossip.anti_entropy_round}): a replica's digest
     asks for what it lacks and offers what it holds newer. *)
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
          match held me k id with Some i when i.version >= v -> None | _ -> Some (k, id))
        digest
    in
    if wanted <> [] then Net.send t.net ~src:me.id ~dst:src (Message.SyncRequest { wanted })
  | SyncRequest { wanted } ->
    let items = List.filter_map (fun (k, id) -> held me k id) wanted in
    if items <> [] then Net.send t.net ~src:me.id ~dst:src (Message.SyncItems { items })
  | SyncItems { items } ->
    List.iter (fun i -> if Store.put me.store i then Node.bump_epoch me) items

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

(* All keys in [lo, hi], clipped just past [hi] (no byte string lies
   strictly between [hi] and [hi ^ "\x00"]). A range's first token is
   minted on every (re-)send, after its rid. *)
let start_range t ~op ~origin ~strategy ~budget ~lo ~hi ~k =
  start t ~op ~origin Shower ~k (fun me rid ->
      Shower.handle_range t me
        {
          rid;
          token = fresh_rid t;
          lo;
          hi;
          clip_lo = lo;
          clip_hi = Some (hi ^ "\x00");
          origin;
          reply_to = origin;
          hops = 0;
          strategy;
          budget;
        })

let range t ~origin ?(strategy = Message.Shower) ?budget ~lo ~hi ~k () =
  (match (budget, strategy) with
  | Some _, Message.Shower -> invalid_arg "Overlay.range: budget requires Sequential"
  | _ -> ());
  start_range t ~op:"range" ~origin ~strategy ~budget ~lo ~hi ~k

(* All keys extending [p]: inclusive bounds for local filtering, clipped
   just past the last extension. *)
let prefix t ~origin ~prefix:p ~k =
  start_range t ~op:"prefix" ~origin ~strategy:Message.Shower ~budget:None ~lo:p
    ~hi:(p ^ String.make 64 '\xff') ~k

(* Bulk insert: ship the whole batch as one [InsertBatch] that splits
   shower-style down the trie; every covering region stores its share
   and acks it once. Timeouts selectively retransmit only the
   still-unacked items. The batch is sorted by key here, as
   [split_batch] requires; its groups and retransmits are sublists, so
   they stay sorted. *)
let bulk_insert t ~origin ~items ~k =
  match items with
  | [] -> k Store.empty_result
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
   result. The keys are sorted here, as [split_batch] requires. *)
let multi_lookup t ~origin ~keys ~k =
  match keys with
  | [] -> k ([], Store.empty_result)
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
      Shower.handle_probe t me ~rid ~token:(fresh_rid t) ~clip_lo:lo ~clip_hi:hi ~origin ~hops:0
        ~pred ~reduce)

let send_task t ~src ~dst ~bytes run = Net.send t.net ~src ~dst (Message.Task { bytes; run })
