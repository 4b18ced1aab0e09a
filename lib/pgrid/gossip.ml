module Rng = Unistore_util.Rng
module Statcache = Unistore_cache.Statcache

let anti_entropy_round ov =
  let net = Overlay.net ov in
  let rng = Overlay.rng ov in
  List.iter
    (fun (nd : Node.t) ->
      if Net.Oracle.is_alive net nd.id (* srclint: allow oracle driver *) then begin
        match List.filter (Net.Oracle.is_alive net) nd.replicas (* srclint: allow oracle item-19 *) with
        | [] -> ()
        | alive ->
          let target = Rng.pick_list rng alive in
          Net.send net ~src:nd.id ~dst:target
            (Message.SyncDigest { digest = Store.digest nd.store })
      end)
    (Overlay.nodes ov)

(* Statistics dissemination is push-pull anti-entropy plus rumor
   mongering. Every round each peer pushes a digest (one stamp per
   region it knows, no content) to [gossip_fanout] random alive peers;
   between writes only the stamps' sampling times and loads move, and a
   digest carries those. A receiver that lacks a region pulls its
   summaries from the pusher, and the reply carries a relay budget: the
   puller forwards what was news to it to one more random peer, up to
   [stats_relay_rounds] hops (see [Overlay.handle_stat_gossip]). At
   128-256 peers four rounds give over 90% of the peers every summary
   and five give all of them; once the data stops changing, a round
   sends only its fanout digests. *)
let stats_round ov ~sample =
  let net = Overlay.net ov in
  let rng = Overlay.rng ov in
  let sim = Overlay.sim ov in
  let nodes = Overlay.nodes ov in
  let alive = List.filter (fun (nd : Node.t) -> Net.Oracle.is_alive net nd.id) nodes (* srclint: allow oracle driver *) in
  List.iter
    (fun (nd : Node.t) ->
      (* Refresh my own summaries from the local store before pushing. *)
      List.iter
        (fun s -> ignore (Statcache.merge nd.stat_cache s : Statcache.merged))
        (sample ~now:(Sim.now sim) nd);
      let entries = Statcache.digest nd.stat_cache in
      let n_alive = Net.Oracle.alive_count net (* srclint: allow oracle unowned *) in
      if entries <> [] && n_alive > 1 then begin
        (* Draw [fanout] distinct targets (excluding self) by rejection
           sampling over the O(1) alive set — the old materialize-and-
           reservoir-sample pattern cost O(alive) per peer, making each
           gossip round quadratic. Fanout is a small constant, so the
           expected number of redraws is O(fanout). *)
        let fanout = min Routing.gossip_fanout (n_alive - 1) in
        let chosen = ref [] in
        let count = ref 0 in
        while !count < fanout do
          match Net.Oracle.random_alive net rng (* srclint: allow oracle unowned *) with
          | Some target when target <> nd.id && not (List.mem target !chosen) ->
            chosen := target :: !chosen;
            incr count;
            Net.send net ~src:nd.id ~dst:target (Message.StatDigest { entries })
          | _ -> ()
        done
      end)
    alive

let replica_versions ov ~key ~item_id =
  Overlay.Oracle.responsible ov key (* srclint: allow oracle driver *)
  |> List.map (fun (nd : Node.t) ->
         let v =
           Store.find nd.store key
           |> List.find_opt (fun (i : Store.item) -> String.equal i.item_id item_id)
           |> Option.map (fun (i : Store.item) -> i.version)
         in
         (nd.id, v))

let staleness ov ~key ~item_id ~version =
  match replica_versions ov ~key ~item_id with
  | [] -> 1.0
  | vs ->
    let stale =
      List.length (List.filter (fun (_, v) -> match v with Some x -> x < version | None -> true) vs)
    in
    float_of_int stale /. float_of_int (List.length vs)
