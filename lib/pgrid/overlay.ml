(* The P-Grid overlay's message dispatcher and public operations. The
   state record and the forwarding paths of routed messages are in
   {!Routing}, showers in {!Shower}; this file
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
let choose_ref = Routing.choose_ref
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

let kill t id = Net.kill t.net id
let revive t id = Net.revive t.net id

module Oracle = struct
  let alive t id = Net.Oracle.is_alive t.net id
  let responsible t key = List.filter (fun n -> Node.covers n key) (nodes t)
end

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
        if Oracle.alive t n.Node.id (* srclint: allow oracle driver *) then begin
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

(* A routed request is answered where it is served: the origin answers
   itself, any other origin gets a [Found] carrying the serving region. *)
let reply t (me : Node.t) ~rid ~origin ~hops ~items ~region ~spread =
  if me.id = origin then Request.answer t.requests rid ~items ~hops ()
  else Net.send t.net ~src:me.id ~dst:origin (Message.Found { rid; items; hops; region; spread })

let handle_lookup t (me : Node.t) ~rid ~key ~origin ~hops =
  if Node.hot_covers me key then begin
    (* Boost replica: answer straight from the synced hot copy (state
       as of the last balance round — the same loose consistency as a
       replica missed by a rumor), advertising the full serving set so
       origins keep spreading. *)
    cache_incr t "balance.hot_serve";
    let region = match me.hot_region with Some r -> r | None -> Node.region me in
    reply t me ~rid ~origin ~hops ~items:(Store.find me.hot_store key) ~region
      ~spread:me.hot_spread
  end
  else
    route t me ~rid ~origin ~hops key
      ~local:(fun () ->
        reply t me ~rid ~origin ~hops ~items:(Store.find me.store key) ~region:(Node.region me)
          ~spread:(owner_spread t me))
      ~forward:(fun hops -> Message.Lookup { rid; key; origin; hops })

(* A write is answered once its owner applied it, with no items. *)
let ack t (me : Node.t) ~rid ~origin ~hops =
  reply t me ~rid ~origin ~hops ~items:[] ~region:(Node.region me) ~spread:[]

(* An owner's write changed [items] in its store: one epoch bump and one
   [Replicate] to each replica. *)
let replicate_changed t (me : Node.t) = function
  | [] -> ()
  | items ->
    Node.bump_epoch me;
    send_all t me me.replicas (Message.Replicate { items; rounds_left = 0 })

(* The owner stamps the write ({!Store.stamp}), so a delete's tombstone
   supersedes what it holds and a re-insert supersedes a tombstone. *)
let handle_insert t (me : Node.t) ~rid ~item ~origin ~hops =
  route t me ~rid ~origin ~hops item.Store.key
    ~local:(fun () ->
      let item = Store.stamp me.store item in
      replicate_changed t me (if Store.put me.store item then [ item ] else []);
      ack t me ~rid ~origin ~hops)
    ~forward:(fun hops -> Message.Insert { rid; item; origin; hops })

let handle_update t (me : Node.t) ~rid ~item ~origin ~hops ~rounds =
  route t me ~rid ~origin ~hops item.Store.key
    ~local:(fun () ->
      if Store.put me.store item then begin
        Node.bump_epoch me;
        send_all t me
          (Rng.sample t.rng gossip_fanout me.replicas)
          (Message.Replicate { items = [ item ]; rounds_left = rounds })
      end;
      ack t me ~rid ~origin ~hops)
    ~forward:(fun hops -> Message.Update { rid; item; origin; hops; rounds })

(* Each item that changes the store is one local write. Rumor
   spreading: a replica that learned something new passes it on while
   rounds are left. *)
let handle_replicate t (me : Node.t) ~items ~rounds_left =
  let changed = List.filter (Store.put me.store) items in
  List.iter (fun _ -> Node.bump_epoch me) changed;
  if changed <> [] && rounds_left > 0 && me.replicas <> [] then
    send_all t me
      (Rng.sample t.rng gossip_fanout me.replicas)
      (Message.Replicate { items = changed; rounds_left = rounds_left - 1 })

(* Anti-entropy for statistics: the periodic push of
   {!Gossip.stats_round} is a digest of region stamps. The receiver
   adopts later samples of the versions it holds, and pulls the regions
   it lacks from the sender (van Renesse et al., LADIS'08). *)
let handle_stat_digest t (me : Node.t) ~src ~entries =
  match
    List.filter_map
      (fun (e : Statcache.digest_entry) ->
        if Statcache.apply_digest me.stat_cache e then Some e.d_region else None)
      entries
  with
  | [] -> ()
  | regions -> Net.send t.net ~src:me.id ~dst:src (Message.StatPull { regions })

(* The answer carries the full relay budget, so what was news to the
   puller spreads on. *)
let handle_stat_pull t (me : Node.t) ~src ~regions =
  Net.send t.net ~src:me.id ~dst:src
    (Message.StatGossip
       {
         summaries = Statcache.summaries_of me.stat_cache regions;
         rounds_left = stats_relay_rounds;
       })

(* Rumor mongering for statistics (Demers et al., PODC'87): a peer that
   learns a summary it did not hold relays just that news to one random
   alive peer while hops are left. A re-sample of a held version is
   merged but is not news, so an unchanged network relays nothing. *)
let handle_stat_gossip t (me : Node.t) ~summaries ~rounds_left =
  let news =
    List.filter
      (fun s ->
        let merged = Statcache.merge me.stat_cache s in
        if merged <> Statcache.Kept then cache_incr t "cache.stats.merged";
        merged = Statcache.News)
      summaries
  in
  if news <> [] && rounds_left > 0 && Net.Oracle.alive_count t.net > 1 (* srclint: allow oracle unowned *) then begin
    let rec other () =
      match Net.Oracle.random_alive t.net t.rng (* srclint: allow oracle unowned *) with
      | Some p when p <> me.id -> p
      | _ -> other ()
    in
    Net.send t.net ~src:me.id ~dst:(other ())
      (Message.StatGossip { summaries = news; rounds_left = rounds_left - 1 })
  end

(* A region's [MultiFound] arrived at the batch origin [me]: learn a
   shortcut to the responding region and resolve its keys. *)
let deliver_batch_ack t (me : Node.t) rid ~from ~found ~region ~hops =
  if Request.live t.requests rid then begin
    learn_shortcut t me ~peer:from ~region;
    Request.ack t.requests rid ~found ~hops
  end

(* A region answers its [n]-element share of a batch once: at the origin
   straight into the accounting, elsewhere as one [MultiFound]. *)
let ack_batch t (me : Node.t) ~rid ~origin ~hops ~n ~found =
  cache_incr t ~by:((n - 1) * Message.header) "batch.bytes.saved";
  let region = Node.region me in
  if me.id = origin then deliver_batch_ack t me rid ~from:me.id ~found ~region ~hops
  else Net.send t.net ~src:me.id ~dst:origin (Message.MultiFound { rid; found; region; hops })

let handle_insert_batch t (me : Node.t) ~rid ~items ~origin ~hops =
  let key_of (i : Store.item) = i.Store.key in
  route_batch t me ~hops ~key_of ~batches:"batch.bulk.batches" ~sizes:"batch.bulk.size" items
    ~local:(fun local ->
      let stored i =
        let i = Store.stamp me.store i in
        if Store.put me.store i then Some i else None
      in
      replicate_changed t me (List.filter_map stored local);
      let keys = List.sort_uniq String.compare (List.map key_of local) in
      ack_batch t me ~rid ~origin ~hops ~n:(List.length local)
        ~found:(List.map (fun k -> (k, [])) keys))
    ~forward:(fun items hops -> Message.InsertBatch { rid; items; origin; hops })

let handle_multi_lookup t (me : Node.t) ~rid ~keys ~origin ~hops =
  route_batch t me ~hops ~key_of:Fun.id ~batches:"batch.probe.batches" ~sizes:"batch.probe.size"
    keys
    ~local:(fun local ->
      let found = List.map (fun key -> (key, Store.find me.store key)) local in
      ack_batch t me ~rid ~origin ~hops ~n:(List.length local) ~found)
    ~forward:(fun keys hops -> Message.MultiLookup { rid; keys; origin; hops })

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
  | Range r ->
    Node.bump_served me;
    Shower.handle_range t me r
  | RangeHit { rid; token; items; targets; hops } ->
    Request.hit t.requests rid ~from:src ~token ~items ~targets ~hops
  | InsertBatch { rid; items; origin; hops } ->
    Node.bump_served me;
    handle_insert_batch t me ~rid ~items ~origin ~hops
  | MultiLookup { rid; keys; origin; hops } ->
    Node.bump_served me;
    handle_multi_lookup t me ~rid ~keys ~origin ~hops
  | MultiFound { rid; found; region; hops } ->
    deliver_batch_ack t me rid ~from:src ~found ~region ~hops
  | Probe { rid; token; clip_lo; clip_hi; origin; hops; pred; reduce } ->
    Node.bump_served me;
    Shower.handle_probe t me ~rid ~token ~clip_lo ~clip_hi ~origin ~hops ~pred ~reduce
  | Replicate { items; rounds_left } -> handle_replicate t me ~items ~rounds_left
  | StatDigest { entries } -> handle_stat_digest t me ~src ~entries
  | StatPull { regions } -> handle_stat_pull t me ~src ~regions
  | StatGossip { summaries; rounds_left } -> handle_stat_gossip t me ~summaries ~rounds_left
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
     asks for what it lacks and offers what it holds newer, tombstones
     included. *)
  | SyncDigest { digest } ->
    let theirs = Hashtbl.create (List.length digest) in
    List.iter (fun (k, id, v) -> Hashtbl.replace theirs (k, id) v) digest;
    (* Items they are missing or hold stale. *)
    let to_send = ref [] in
    let offer (i : Store.item) =
      match Hashtbl.find_opt theirs (i.key, i.item_id) with
      | Some v when v >= i.version -> ()
      | _ -> to_send := i :: !to_send
    in
    Store.iter me.store offer;
    List.iter offer (Store.tombstones me.store);
    if !to_send <> [] then
      Net.send t.net ~src:me.id ~dst:src (Message.Replicate { items = !to_send; rounds_left = 0 });
    (* Items I am missing or hold stale. *)
    let wanted =
      List.filter_map
        (fun (k, id, v) ->
          match Store.held me.store ~key:k ~item_id:id with
          | Some i when i.version >= v -> None
          | _ -> Some (k, id))
        digest
    in
    if wanted <> [] then Net.send t.net ~src:me.id ~dst:src (Message.SyncRequest { wanted })
  | SyncRequest { wanted } ->
    let items = List.filter_map (fun (key, item_id) -> Store.held me.store ~key ~item_id) wanted in
    if items <> [] then Net.send t.net ~src:me.id ~dst:src (Message.Replicate { items; rounds_left = 0 })

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

(* A delete is an insert of a tombstone, which the owner stamps past
   the version it holds and replicates as any write. *)
let delete t ~origin ~key ~item_id ~k =
  let item = Store.tombstone ~key ~item_id ~version:0 in
  start t ~op:"delete" ~origin Single ~k (fun me rid -> handle_insert t me ~rid ~item ~origin ~hops:0)

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
let start_range t ~op ~origin ~strategy ~budget ~filter ~lo ~hi ~k =
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
          hops = 0;
          strategy;
          budget;
          filter;
        })

let range t ~origin ?(strategy = Message.Shower) ?budget ?filter ~lo ~hi ~k () =
  (match (budget, strategy, filter) with
  | Some _, Message.Shower, _ -> invalid_arg "Overlay.range: budget requires Sequential"
  | Some _, _, Some _ -> invalid_arg "Overlay.range: a budgeted range takes no filter"
  | _ -> ());
  start_range t ~op:"range" ~origin ~strategy ~budget ~filter ~lo ~hi ~k

(* All keys extending [p]: inclusive bounds for local filtering, clipped
   just past the last extension. *)
let prefix ?filter t ~origin ~prefix:p ~k =
  start_range t ~op:"prefix" ~origin ~strategy:Message.Shower ~budget:None ~filter ~lo:p
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
