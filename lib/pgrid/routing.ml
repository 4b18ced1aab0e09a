(* The overlay's state and its forwarding paths for routed messages:
   greedy prefix routing, each hop to the reference whose path shares
   the longest prefix with the key, with replica failover; the origin's
   shortcut cache, whose exact hit goes straight to the responsible peer
   and whose regions next to the key compete with the references on
   prefix depth for the first hop; one routed hop of a single-key
   request and one hop of a batch.
   Showers are in {!Shower}; the message dispatcher and the public
   operations are in {!Overlay}. *)

module Bitkey = Unistore_util.Bitkey
module Rng = Unistore_util.Rng
module Metrics = Unistore_obs.Metrics
module Shortcuts = Unistore_cache.Shortcuts

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
    read_observer = None;
  }

let config t = Request.config t.requests
let metrics t = Net.metrics t.net
let fresh_rid t = Request.fresh_rid t.requests

(* Replicas a rumor is pushed to per hop ({!Overlay.update}), and peers
   a statistics push reaches per round ({!Gossip.stats_round}). *)
let gossip_fanout = 2

(* Hops a statistics push may still be relayed by peers to whom it was
   news: with fanout 2, plain pushes reach about (1+2)^r peers in r
   rounds; relaying news for 3 more hops lets 4 rounds cover 256. *)
let stats_relay_rounds = 3

let find_node t id =
  if id >= 0 && id <= t.max_node_id then t.node_arena.(id) else None

let cache_incr t ?by name =
  match metrics t with Some m -> Metrics.incr m ?by name | None -> ()

let too_far t hops = hops >= (config t).max_hops

(* ------------------------------------------------------------------ *)
(* Greedy prefix routing                                               *)

(* Whether [p] is up and not cut off from [me], read from the
   simulator's oracle: a perfect, instant and free failure detector. No
   keep-alive pings are sent or charged; ROADMAP item 19 replaces this
   read with suspicions learned from timeouts and paid-for pings. *)
let reachable t (me : Node.t) p =
  Net.Oracle.is_alive t.net p (* srclint: allow oracle item-19 *)
  && not (Net.Oracle.partitioned t.net ~src:me.Node.id ~dst:p) (* srclint: allow oracle item-19 *)

(* Replica failover: every ref at this level looks failed, so stand in
   a reachable member of a ref's replica group. Replica-group membership
   spreads with the exchange/join gossip, so a peer plausibly knows its
   refs' replicas; P-Grid's own fault-tolerance story is exactly that
   any replica of the addressed region can serve. *)
let failover_candidates t me refs =
  List.concat_map
    (fun r ->
      match find_node t r with
      | Some nd -> List.filter (reachable t me) nd.Node.replicas
      | None -> [])
    (Array.to_list refs)
  |> List.sort_uniq compare

(* The first level from [from] on at which [key] leaves [nd]'s path;
   [max_int] when [nd] covers [key]. *)
let match_depth (nd : Node.t) ~from key =
  let len = Bitkey.length nd.Node.path in
  let rec go l =
    if l >= len then max_int
    else if Node.key_side nd ~level:l key <> Bitkey.get nd.Node.path l then l
    else go (l + 1)
  in
  go from

(* Routing prefers reachable refs; if every ref of a level looks failed
   we fail over to a reachable replica of one of them (and learn it as a
   ref); with no replica reachable either we still try one, and the
   request times out and retries. The common case, every ref reachable,
   picks straight from the table without building a candidate list.

   Among the candidates, a [key] picks those whose path agrees with it
   for the most levels, as Pastry and Kademlia forward to the known peer
   closest to the key: a candidate that covers [key] ranks above all
   others. A P-Grid routing table holds its peers' paths, so we read
   each candidate's [path]/[splits] through the node arena, as
   [failover_candidates] reads their replica lists. Every candidate lies
   in the subtree [key] branches into at [level], so it shares the key's
   first [level + 1] levels and the comparison starts after them.
   Without a key (a batch group spans many subtrees) every candidate
   ties. Ties break with one random draw, which spreads load over equally
   deep refs; with [proximity_routing], the nearest of them wins. *)
let choose_ref t (me : Node.t) ?key level =
  let refs = Node.refs_at me level in
  let candidates, failing_over =
    if Array.for_all (reachable t me) refs then (refs, false)
    else
      match List.filter (reachable t me) (Array.to_list refs) with
      | [] -> (
        match failover_candidates t me refs with
        | [] -> (refs, false)
        | alts -> (Array.of_list alts, true))
      | alive -> (Array.of_list alive, false)
  in
  let from = level + 1 in
  let depth p =
    match (key, find_node t p) with
    | Some key, Some nd -> match_depth nd ~from key
    | _ -> from
  in
  let depths = Array.map depth candidates in
  let deepest = Array.fold_left max min_int depths in
  let tied = List.filteri (fun i _ -> depths.(i) = deepest) (Array.to_list candidates) in
  let chosen =
    match tied with
    | [] -> None
    | _ when (config t).proximity_routing ->
      let lat = Net.latency t.net in
      let best =
        List.fold_left
          (fun acc p ->
            let c = Latency.base lat ~src:me.id ~dst:p in
            match acc with Some (_, c0) when c0 <= c -> acc | _ -> Some (p, c))
          None tied
      in
      Option.map fst best
    | _ -> Some (List.nth tied (Rng.int t.rng (List.length tied)))
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
   first level where the key branches away from [me]'s path, to that
   level's reference deepest along [key] ([choose_ref]). *)
let route_step t (me : Node.t) key =
  let level = match_depth me ~from:0 key in
  if level = max_int then `Local
  else match choose_ref t me ~key level with Some p -> `Forward p | None -> `Stuck

(* ------------------------------------------------------------------ *)
(* Routing shortcuts (lib/cache level 1)                               *)

(* Record that [peer] answered for [region] — called at the origin when
   a [Found] or [MultiFound] reply arrives. *)
let learn_shortcut t (me : Node.t) ~peer ~region:(lo, hi) =
  if peer <> me.Node.id && Shortcuts.capacity me.Node.shortcuts > 0 then begin
    Shortcuts.learn me.Node.shortcuts ~lo ~hi ~peer;
    cache_incr t "cache.shortcut.learn"
  end

(* Consult the origin's learned shortcuts for a single direct hop to the
   responsible peer. A hit pointing at a peer that looks failed (dead or
   across a partition) invalidates that peer's entries on the spot (the
   same failure-detection assumption as [choose_ref]). *)
let consult_shortcut t (me : Node.t) ~rid key =
  if Shortcuts.capacity me.Node.shortcuts = 0 then None
  else
    match Shortcuts.find me.Node.shortcuts ~key with
    | Some p when p <> me.Node.id && reachable t me p ->
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

(* The origin's first hop goes to the known peer deepest along [key]:
   [p], the reference [route_step] chose, or a peer of a cached region
   next to [key] ({!Shortcuts.near}) whose path, read through the node
   arena as [choose_ref] reads its candidates, matches strictly more
   levels of [key]. [key] leaves [me]'s path at [level] and [p] lies in
   the subtree it branches into there, so [p] matches at least
   [level + 1] levels and a near peer that beats it lies in that subtree
   too. On a tie [p], and the random draw that picked it, stay. An
   unreachable near peer is skipped and its entries invalidated, as in
   [consult_shortcut]. *)
let deepest_known t (me : Node.t) key p =
  match Shortcuts.near me.Node.shortcuts ~key with
  | [] -> p
  | near ->
    let depth q ~from =
      match find_node t q with Some nd -> match_depth nd ~from key | None -> from
    in
    let level = match_depth me ~from:0 key in
    let best, _ =
      List.fold_left
        (fun ((_, deepest) as best) q ->
          if not (reachable t me q) then begin
            let n = Shortcuts.invalidate_peer me.shortcuts q in
            if n > 0 then cache_incr t ~by:n "cache.shortcut.invalidate";
            best
          end
          else
            let d = depth q ~from:0 in
            if d > deepest then (q, d) else best)
        (p, depth p ~from:(level + 1))
        near
    in
    if best <> p then cache_incr t "cache.shortcut.near";
    best

(* One routing decision for single-destination requests: greedy prefix
   routing, with the origin's shortcut cache consulted on the first hop.
   A shortcut hit forwards straight to the learned responsible peer —
   one hop instead of O(depth). On a miss the first hop goes to the
   deepest known peer ([deepest_known]). Either way the first hop
   matches more levels of [key] than the origin does, and every later
   hop, a reference in the subtree the key branches into, matches more
   than the hop before it, so a request takes at most [depth] hops. *)
let next_hop t (me : Node.t) ~rid ~origin ~hops key =
  match route_step t me key with
  | `Local -> `Local
  | (`Forward _ | `Stuck) as step -> (
    if me.id = origin && hops = 0 then
      match (consult_shortcut t me ~rid key, step) with
      | Some p, _ -> `Forward p
      | None, `Forward p -> `Forward (deepest_known t me key p)
      | None, `Stuck -> `Stuck
    else step)

(* One hop of a routed single-key request at [me]: [local ()] when [me]
   covers [key], else [forward hops'] goes to the next hop. A request
   that is stuck or at the hop limit is dropped here; its origin's timer
   retries it. *)
let route t (me : Node.t) ~rid ~origin ~hops key ~local ~forward =
  match next_hop t me ~rid ~origin ~hops key with
  | `Local -> local ()
  | `Forward p when not (too_far t hops) -> Net.send t.net ~src:me.id ~dst:p (forward (hops + 1))
  | `Forward _ | `Stuck -> ()

(* ------------------------------------------------------------------ *)
(* Batches (bulk insert / multi-key lookup)                             *)

(* Partition a batch at [me]: the share [me] covers locally, plus one
   group per first-divergence level in ascending level order, mirroring
   [route_step] per key. One forwarded message per touched subtree
   replaces one routed message per item. Precondition: [xs] is sorted
   by [key_of] (every batch is: see [Overlay.bulk_insert] and
   [Overlay.multi_lookup]; groups and retransmits are sublists). Each
   level's side of [me]'s path is an interval of keys, so a key between
   the batch's first and last passes every level that both of them
   pass, and its scan starts at the first level they do not share. *)
let split_batch (me : Node.t) ~key_of xs =
  let len = Bitkey.length me.Node.path in
  let passes key l = Node.key_side me ~level:l key = Bitkey.get me.Node.path l in
  let shared =
    match xs with
    | [] -> len
    | x :: rest ->
      let first = key_of x and last = key_of (List.fold_left (fun _ y -> y) x rest) in
      let rec go l = if l < len && passes first l && passes last l then go (l + 1) else l in
      go 0
  in
  let local = ref [] and groups = Array.make len [] in
  List.iter
    (fun x ->
      let key = key_of x in
      let rec go l =
        if l >= len then local := x :: !local
        else if passes key l then go (l + 1)
        else groups.(l) <- x :: groups.(l)
      in
      go shared)
    xs;
  let forwards = ref [] in
  for l = len - 1 downto 0 do
    if groups.(l) <> [] then forwards := (l, List.rev groups.(l)) :: !forwards
  done;
  (List.rev !local, !forwards)

(* One hop of a batch at [me]: [local share] serves what [me] covers,
   then each other group goes to one reference of its level as
   [forward group hops'], counted under [batches] with its size observed
   under [sizes]. A group spans many subtrees, so no one key ranks the
   references: [choose_ref] picks among them at random. *)
let route_batch t (me : Node.t) ~hops ~key_of ~batches ~sizes xs ~local ~forward =
  let share, forwards = split_batch me ~key_of xs in
  if share <> [] then local share;
  if not (too_far t hops) then
    List.iter
      (fun (level, group) ->
        match choose_ref t me level with
        | Some p ->
          cache_incr t batches;
          (match metrics t with
          | Some m ->
            Metrics.observe m ~buckets:Request.fanout_buckets sizes
              (float_of_int (List.length group))
          | None -> ());
          Net.send t.net ~src:me.id ~dst:p (forward group (hops + 1))
        | None -> ())
      forwards
