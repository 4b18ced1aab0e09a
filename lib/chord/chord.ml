module Rng = Unistore_util.Rng
module Sim = Unistore_sim.Sim
module Net = Unistore_sim.Net
module Latency = Unistore_sim.Latency
module Store = Unistore_pgrid.Store
module Wire = Unistore_pgrid.Wire

type result = Store.result = {
  items : Store.item list;
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
  latency : float;
}

type config = { succ_list : int }

let default_config = { succ_list = 3 }

(* Request deadline and how many times a single request re-sends. *)
let timeout_ms = 10_000.0
let retries = 2

type node = {
  id : int;
  ring : int;
  mutable successors : int list;  (* nearest first *)
  mutable predecessor : int;
  mutable fingers : int array;  (* index i: successor of (ring + 2^i) *)
  store : (string, Store.item list) Hashtbl.t;
}

type msg =
  | Put of { rid : int; target : int; item : Store.item; origin : int; hops : int }
  | Get of { rid : int; target : int; key : string; origin : int; hops : int }
  | Got of { rid : int; items : Store.item list; hops : int }
  | Replica of { item : Store.item }
  | Del of { rid : int; target : int; key : string; item_id : string; origin : int; hops : int }
  | Unreplica of { key : string; item_id : string }
  | Bcast of { rid : int; limit : int; origin : int; hops : int; pred : Store.item -> bool }
  | BcastHit of { rid : int; items : Store.item list; forwards : int; hops : int }
  | Task of { bytes : int; run : int -> unit }

let msg_size = function
  | Put { item; _ } -> 20 + Wire.items_bytes [ item ]
  | Get { key; _ } -> 20 + String.length key
  | Got { items; _ } -> 20 + Wire.items_bytes items
  | Replica { item } -> 20 + Wire.items_bytes [ item ]
  | Del { key; item_id; _ } -> 20 + String.length key + String.length item_id
  | Unreplica { key; item_id } -> 20 + String.length key + String.length item_id
  | Bcast _ -> 40
  | BcastHit { items; _ } -> 20 + Wire.items_bytes items
  | Task { bytes; _ } -> 20 + bytes

let msg_kind = function
  | Put _ -> "put"
  | Get _ -> "get"
  | Got _ -> "got"
  | Replica _ -> "replica"
  | Del _ -> "del"
  | Unreplica _ -> "unreplica"
  | Bcast _ -> "bcast"
  | BcastHit _ -> "bcast-hit"
  | Task _ -> "task"

let msg_corr = function
  | Put { rid; _ }
  | Get { rid; _ }
  | Got { rid; _ }
  | Del { rid; _ }
  | Bcast { rid; _ }
  | BcastHit { rid; _ } ->
    rid
  | Replica _ | Unreplica _ | Task _ -> -1

type pending =
  | Psingle of {
      resend : unit -> unit;
      mutable attempts : int;
      started : float;
      mutable deadline : Sim.timer;  (* the current attempt's *)
      k : result -> unit;
    }
  | Pmulti of {
      mutable outstanding : int;
      mutable items : Store.item list;
      mutable hops : int;
      mutable peers_hit : int;
      started : float;
      deadline : Sim.timer;
      k : result -> unit;
    }

type t = {
  sim : Sim.t;
  net : msg Net.t;
  config : config;
  nodes : node array;  (* arena indexed by peer id (ids are 0..n-1) *)
  ring_order : node array;  (* sorted by ring id *)
  pending : (int, pending) Hashtbl.t;
  mutable next_rid : int;
}

let sim t = t.sim
let node_count t = Array.length t.nodes

let node t id =
  if id >= 0 && id < Array.length t.nodes then t.nodes.(id)
  else invalid_arg (Printf.sprintf "Chord.node: unknown peer %d" id)

let ring_id t id = (node t id).ring
let kill t id = Net.kill t.net id
let revive t id = Net.revive t.net id

module Oracle = struct
  let is_alive t id = Net.Oracle.is_alive t.net id
  let alive_peers t = Net.Oracle.alive_peers t.net

  let responsible t key =
    let target = Ring.hash_key key in
    let nn = Array.length t.ring_order in
    let rec find i = if i >= nn then t.ring_order.(0).id else if t.ring_order.(i).ring >= target then t.ring_order.(i).id else find (i + 1) in
    find 0
end

let expected_latency t = Latency.expected (Net.latency t.net)
let set_metrics t m = Net.set_metrics t.net m
let set_trace t tr = Net.set_trace t.net tr
let total_sent t = Net.total_sent t.net

(* Read-only routing-state accessors for the overlay invariant auditor
   (lib/analysis): expose what a converged ring must satisfy without
   opening up the node representation. *)
let peers t = List.init (Array.length t.nodes) (fun i -> i)
let successors t id = (node t id).successors
let predecessor_of t id = (node t id).predecessor
let fingers t id = Array.copy (node t id).fingers

let stored_items t id =
  Hashtbl.fold (fun _ is acc -> List.rev_append is acc) (node t id).store []
  |> List.sort compare

let store_put (n : node) (item : Store.item) =
  let existing = Option.value ~default:[] (Hashtbl.find_opt n.store item.key) in
  let others = List.filter (fun (i : Store.item) -> not (String.equal i.item_id item.item_id)) existing in
  let keep =
    match List.find_opt (fun (i : Store.item) -> String.equal i.item_id item.item_id) existing with
    | Some old when old.version > item.version -> old
    | _ -> item
  in
  Hashtbl.replace n.store item.key (keep :: others)

let store_find (n : node) key = Option.value ~default:[] (Hashtbl.find_opt n.store key)

let store_remove (n : node) ~key ~item_id =
  match Hashtbl.find_opt n.store key with
  | None -> ()
  | Some items -> (
    match List.filter (fun (i : Store.item) -> not (String.equal i.item_id item_id)) items with
    | [] -> Hashtbl.remove n.store key
    | rest -> Hashtbl.replace n.store key rest)

(* ------------------------------------------------------------------ *)
(* Request bookkeeping (mirrors Overlay's)                             *)

let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  rid

let finish_single t rid ~items ~hops ~complete =
  match Hashtbl.find_opt t.pending rid with
  | Some (Psingle p) ->
    Hashtbl.remove t.pending rid;
    ignore (Sim.cancel t.sim p.deadline);
    p.k
      {
        items;
        hops;
        peers_hit = 1;
        complete;
        completeness = (if complete then 1.0 else 0.0);
        latency = Sim.now t.sim -. p.started;
      }
  | _ -> ()

let finish_multi t rid ~complete =
  match Hashtbl.find_opt t.pending rid with
  | Some (Pmulti p) ->
    Hashtbl.remove t.pending rid;
    ignore (Sim.cancel t.sim p.deadline);
    p.k
      {
        items = p.items;
        hops = p.hops;
        peers_hit = p.peers_hit;
        complete;
        completeness = (if complete then 1.0 else 0.0);
        latency = Sim.now t.sim -. p.started;
      }
  | _ -> ()

let deliver_hit t rid ~items ~forwards ~hops =
  match Hashtbl.find_opt t.pending rid with
  | Some (Pmulti p) ->
    p.outstanding <- p.outstanding + forwards - 1;
    p.items <- List.rev_append items p.items;
    p.hops <- max p.hops hops;
    p.peers_hit <- p.peers_hit + 1;
    if p.outstanding <= 0 then finish_multi t rid ~complete:true
  | _ -> ()

(* Deadlines: a finished request cancels its own, so one that fires
   finds its request pending. A single request retries, re-arming only
   if the re-send did not finish it at once, then gives up. *)
let rec arm_single_timeout t rid =
  Sim.timer t.sim ~delay:timeout_ms (fun () ->
      match Hashtbl.find_opt t.pending rid with
      | Some (Psingle p) ->
        if p.attempts < retries then begin
          p.attempts <- p.attempts + 1;
          p.resend ();
          if Hashtbl.mem t.pending rid then p.deadline <- arm_single_timeout t rid
        end
        else finish_single t rid ~items:[] ~hops:0 ~complete:false
      | _ -> ())

let arm_multi_timeout t rid =
  Sim.timer t.sim ~delay:timeout_ms (fun () -> finish_multi t rid ~complete:false)

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

let first_alive_successor t (me : node) =
  match List.find_opt (Oracle.is_alive t) me.successors (* srclint: allow oracle item-19 *) with
  | Some s -> Some s
  | None -> List.nth_opt me.successors 0

(* Am I responsible for [target]? True iff target in (predecessor, me],
   where the predecessor is the nearest ALIVE one — stabilization repoints
   predecessors after failures, so a successor absorbs its dead
   predecessor's arc (and already holds its data via successor
   replication). *)
let is_responsible t (me : node) target =
  let rec alive_pred id steps =
    if steps > node_count t then me.id
    else begin
      let p = (node t id).predecessor in
      if Oracle.is_alive t p (* srclint: allow oracle item-19 *) then p else alive_pred p (steps + 1)
    end
  in
  let pred = alive_pred me.id 0 in
  let pred_ring = (node t pred).ring in
  Ring.in_oc pred_ring me.ring target

let closest_preceding t (me : node) target =
  (* Scan fingers from the farthest: the classic greedy step. Skip dead
     fingers (failure detection on direct neighbors, as in Overlay). *)
  let rec scan i =
    if i < 0 then None
    else begin
      let f = me.fingers.(i) in
      let fr = (node t f).ring in
      if Ring.in_oo me.ring target fr && Oracle.is_alive t f (* srclint: allow oracle item-19 *) then Some f
      else scan (i - 1)
    end
  in
  match scan (Array.length me.fingers - 1) with
  | Some f -> Some f
  | None -> first_alive_successor t me

let route_step t (me : node) target =
  if is_responsible t me target then `Local
  else
    match closest_preceding t me target with
    | Some next when next <> me.id -> `Forward next
    | _ -> `Stuck

(* ------------------------------------------------------------------ *)
(* Handlers                                                            *)

(* The responsible peer answers the origin: itself directly, any other
   origin with a [Got]. A write's answer carries no items. *)
let reply t (me : node) ~rid ~origin ~hops ~items =
  if me.id = origin then finish_single t rid ~items ~hops ~complete:true
  else Net.send t.net ~src:me.id ~dst:origin (Got { rid; items; hops })

let handle_put t (me : node) ~rid ~target ~item ~origin ~hops =
  match route_step t me target with
  | `Local ->
    store_put me item;
    List.iteri
      (fun i s -> if i < t.config.succ_list - 1 then Net.send t.net ~src:me.id ~dst:s (Replica { item }))
      me.successors;
    reply t me ~rid ~origin ~hops ~items:[]
  | `Forward next -> Net.send t.net ~src:me.id ~dst:next (Put { rid; target; item; origin; hops = hops + 1 })
  | `Stuck -> ()

and handle_del t (me : node) ~rid ~target ~key ~item_id ~origin ~hops =
  match route_step t me target with
  | `Local ->
    store_remove me ~key ~item_id;
    List.iteri
      (fun i s ->
        if i < t.config.succ_list - 1 then
          Net.send t.net ~src:me.id ~dst:s (Unreplica { key; item_id }))
      me.successors;
    reply t me ~rid ~origin ~hops ~items:[]
  | `Forward next ->
    Net.send t.net ~src:me.id ~dst:next (Del { rid; target; key; item_id; origin; hops = hops + 1 })
  | `Stuck -> ()

and handle_get t (me : node) ~rid ~target ~key ~origin ~hops =
  match route_step t me target with
  | `Local -> reply t me ~rid ~origin ~hops ~items:(store_find me key)
  | `Forward next -> Net.send t.net ~src:me.id ~dst:next (Get { rid; target; key; origin; hops = hops + 1 })
  | `Stuck -> ()

(* Finger-tree broadcast (El-Ansary et al.): forward to each finger with
   the next finger's ring id as its limit; receivers re-broadcast inside
   their limit. Covers every alive peer exactly once with n-1 messages at
   O(log n) depth. *)
and handle_bcast t (me : node) ~rid ~limit ~origin ~hops ~pred =
  let fingers =
    Array.to_list me.fingers |> List.sort_uniq compare
    |> List.filter (fun f -> f <> me.id)
    |> List.map (fun f -> (f, (node t f).ring))
    |> List.filter (fun (_, r) -> Ring.in_oo me.ring limit r)
    |> List.sort (fun (_, r1) (_, r2) ->
           (* ascending clockwise distance from me *)
           compare (Ring.add r1 (Ring.size - me.ring)) (Ring.add r2 (Ring.size - me.ring)))
  in
  let rec fan = function
    | [] -> 0
    | (f, _) :: rest ->
      let sub_limit = match rest with (_, r2) :: _ -> r2 | [] -> limit in
      Net.send t.net ~src:me.id ~dst:f (Bcast { rid; limit = sub_limit; origin; hops = hops + 1; pred });
      1 + fan rest
  in
  let forwards = fan fingers in
  (* The hit list travels inside a [BcastHit] message: sort it out of
     hash-bucket order so the reply payload is deterministic. *)
  let items =
    Hashtbl.fold (fun _ is acc -> List.rev_append (List.filter pred is) acc) me.store []
    |> List.sort (fun (a : Store.item) (b : Store.item) ->
           match String.compare a.key b.key with
           | 0 -> String.compare a.item_id b.item_id
           | c -> c)
  in
  if me.id = origin then deliver_hit t rid ~items ~forwards ~hops
  else Net.send t.net ~src:me.id ~dst:origin (BcastHit { rid; items; forwards; hops })

let dispatch t (me : node) ~src:_ msg =
  match msg with
  | Put { rid; target; item; origin; hops } -> handle_put t me ~rid ~target ~item ~origin ~hops
  | Get { rid; target; key; origin; hops } -> handle_get t me ~rid ~target ~key ~origin ~hops
  | Got { rid; items; hops } -> finish_single t rid ~items ~hops ~complete:true
  | Replica { item } -> store_put me item
  | Del { rid; target; key; item_id; origin; hops } ->
    handle_del t me ~rid ~target ~key ~item_id ~origin ~hops
  | Unreplica { key; item_id } -> store_remove me ~key ~item_id
  | Bcast { rid; limit; origin; hops; pred } -> handle_bcast t me ~rid ~limit ~origin ~hops ~pred
  | BcastHit { rid; items; forwards; hops } -> deliver_hit t rid ~items ~forwards ~hops
  | Task { run; _ } -> run me.id

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create sim ~latency ~rng ?(drop = 0.0) ~config ~n () =
  if n < 1 then invalid_arg "Chord.create: n < 1";
  let rng = Rng.split rng in
  let net = Net.create sim ~latency ~rng ~drop ~size:msg_size ~kind:msg_kind ~corr:msg_corr () in
  let mk id =
    { id; ring = Ring.hash_peer id; successors = []; predecessor = id; fingers = [||];
      store = Hashtbl.create 16 }
  in
  let nodes_arr = Array.init n mk in
  let by_ring = Array.copy nodes_arr in
  Array.sort (fun a b -> compare a.ring b.ring) by_ring;
  let nn = Array.length by_ring in
  (* Exact successors / predecessors / fingers. *)
  let successor_of_ringpos i = by_ring.((i + 1) mod nn) in
  (* Find the first node whose ring id is >= x (clockwise successor). *)
  let succ_of_id x =
    let lo = ref 0 and hi = ref (nn - 1) and ans = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if by_ring.(mid).ring >= x then begin
        ans := Some by_ring.(mid);
        hi := mid - 1
      end
      else lo := mid + 1
    done;
    match !ans with Some nd -> nd | None -> by_ring.(0)
  in
  Array.iteri
    (fun i nd ->
      nd.successors <-
        List.init (min config.succ_list (nn - 1)) (fun k -> by_ring.((i + 1 + k) mod nn).id);
      nd.predecessor <- by_ring.((i + nn - 1) mod nn).id;
      nd.fingers <- Array.init Ring.bits (fun b -> (succ_of_id (Ring.finger_start nd.ring b)).id);
      ignore (successor_of_ringpos i))
    by_ring;
  let t =
    {
      sim;
      net;
      config;
      nodes = nodes_arr;
      ring_order = by_ring;
      pending = Hashtbl.create 64;
      next_rid = 0;
    }
  in
  Array.iter
    (fun nd -> Net.register net nd.id (fun ~src msg -> dispatch t nd ~src msg))
    nodes_arr;
  t

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)

(* Register single request [rid], arm its deadline and send it. *)
let start_single t rid ~k resend =
  let deadline = arm_single_timeout t rid in
  Hashtbl.replace t.pending rid
    (Psingle { resend; attempts = 0; started = Sim.now t.sim; deadline; k });
  resend ()

let put t ~origin ~key ~item_id ~payload ?(version = 0) ~k () =
  let rid = fresh_rid t in
  let target = Ring.hash_key key in
  let item = { Store.key; item_id; payload; version } in
  let me = node t origin in
  let resend () = handle_put t me ~rid ~target ~item ~origin ~hops:0 in
  start_single t rid ~k resend

let del t ~origin ~key ~item_id ~k =
  let rid = fresh_rid t in
  let target = Ring.hash_key key in
  let me = node t origin in
  let resend () = handle_del t me ~rid ~target ~key ~item_id ~origin ~hops:0 in
  start_single t rid ~k resend

let get t ~origin ~key ~k =
  let rid = fresh_rid t in
  let target = Ring.hash_key key in
  let me = node t origin in
  let resend () = handle_get t me ~rid ~target ~key ~origin ~hops:0 in
  start_single t rid ~k resend

let broadcast t ~origin ~pred ~k =
  let rid = fresh_rid t in
  let deadline = arm_multi_timeout t rid in
  Hashtbl.replace t.pending rid
    (Pmulti
       { outstanding = 1; items = []; hops = 0; peers_hit = 0; started = Sim.now t.sim; deadline; k });
  let me = node t origin in
  handle_bcast t me ~rid ~limit:me.ring ~origin ~hops:0 ~pred

let send_task t ~src ~dst ~bytes run = Net.send t.net ~src ~dst (Task { bytes; run })
