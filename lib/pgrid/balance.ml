module Statcache = Unistore_cache.Statcache
module Metrics = Unistore_obs.Metrics

(* Adaptive hot-path replication (the control plane of the heavy-traffic
   engine). One balance round reads the gossiped per-region load signal
   ({!Statcache.region_loads} as seen by the lowest-id live peer). Loads
   live in the per-region stamps that every statistics round's digests
   carry, so every origin converges to the same view within O(log n)
   rounds and any fixed choice of reader is representative. The round
   flags regions whose served-request rate stands far above the mean,
   and has each hot region's owner ship its content to a few cold
   "boost" peers over ordinary [HotSync] messages. Boosts answer
   lookups for the region from the synced copy; owners advertise the
   serving set on replies so origins in spread mode rotate across it.
   When the load subsides below half the spawn threshold (hysteresis),
   the owner retires its boosts.

   Everything here is deterministic: the load view is sorted, candidate
   selection is sorted by (own-region load, id), and all messaging goes
   through the simulated network. *)

type report = {
  regions_seen : int;  (** regions with a gossiped load sample *)
  hot : (string * int) list;  (** hot region lower bounds with their load *)
  spawned : int;  (** new boost replicas created this round *)
  refreshed : int;  (** existing boosts re-synced this round *)
  retired : int;  (** boosts stood down this round *)
}

(* A region is hot when its gossiped per-round load reaches [hot_factor]
   times the mean over live regions and at least [hot_min_load] (so idle
   deployments do not boost noise); it gets up to [hot_max_boosts] boost
   replicas. *)
let hot_factor = 3.0
let hot_min_load = 32
let hot_max_boosts = 3

let incr ov name ~by =
  if by > 0 then
    match Overlay.metrics ov with Some m -> Metrics.incr m ~by name | None -> ()

(* All items of [owner]'s store that fall inside its region — the
   payload of a boost sync. Sorted for byte-stable message contents. *)
let region_items (owner : Node.t) =
  let lo, hi = Node.region owner in
  let keep key =
    String.compare key lo >= 0
    && match hi with None -> true | Some h -> String.compare key h < 0
  in
  let acc = ref [] in
  Store.iter owner.store (fun it -> if keep it.Store.key then acc := it :: !acc);
  List.sort
    (fun (a : Store.item) b ->
      match String.compare a.key b.key with
      | 0 -> String.compare a.item_id b.item_id
      | c -> c)
    !acc

(* The live owner of the region rooted at [lo]: the lowest-id live peer
   whose own region starts there (replicas of one leaf region are
   interchangeable for this purpose). *)
let find_owner live lo =
  List.find_opt (fun (nd : Node.t) -> String.equal (fst (Node.region nd)) lo) live

let sync owner_id ~region ~spread ~items net dst =
  Net.send net ~src:owner_id ~dst
    (Message.HotSync { region; owner = owner_id; spread; items; retire = false })

let retire owner_id net dst =
  Net.send net ~src:owner_id ~dst
    (Message.HotSync
       { region = ("", None); owner = owner_id; spread = []; items = []; retire = true })

let round ov =
  let net = Overlay.net ov in
  let live = List.filter (fun (nd : Node.t) -> Net.Oracle.is_alive net nd.id) (Overlay.nodes ov) (* srclint: allow oracle item-12 *) in
  match live with
  | [] -> { regions_seen = 0; hot = []; spawned = 0; refreshed = 0; retired = 0 }
  | controller :: _ ->
    let loads = Statcache.region_loads controller.Node.stat_cache in
    let n = List.length loads in
    (* Mean over every live region, not just the reporting ones: load
       summaries only exist for regions holding attribute-index keys,
       and dividing by that subset alone would inflate the baseline a
       hot spot must beat. *)
    let n_regions =
      List.length
        (List.sort_uniq String.compare
           (List.map (fun (nd : Node.t) -> fst (Node.region nd)) live))
    in
    let mean =
      if n_regions = 0 then 0.0
      else float_of_int (List.fold_left (fun a (_, l) -> a + l) 0 loads) /. float_of_int n_regions
    in
    let load_of =
      let tbl = Hashtbl.create 16 in
      List.iter (fun (lo, l) -> Hashtbl.replace tbl lo l) loads;
      fun lo -> Option.value ~default:0 (Hashtbl.find_opt tbl lo)
    in
    let is_hot l = float_of_int l >= hot_factor *. mean && l >= hot_min_load in
    let is_cool l = float_of_int l < hot_factor /. 2.0 *. mean in
    let hot = List.filter (fun (_, l) -> is_hot l) loads in
    let spawned = ref 0 and refreshed = ref 0 and retired = ref 0 in
    List.iter
      (fun (lo, _load) ->
        match find_owner live lo with
        | None -> ()
        | Some owner ->
          let keep = List.filter (Net.Oracle.is_alive net) owner.Node.boosts (* srclint: allow oracle item-12 *) in
          let wanted = hot_max_boosts - List.length keep in
          let fresh =
            if wanted <= 0 then []
            else
              (* Cold candidates: live peers outside this region, not
                 already boosting anything, coolest own region first. *)
              live
              |> List.filter (fun (nd : Node.t) ->
                     (not (String.equal (fst (Node.region nd)) lo))
                     && Option.is_none nd.Node.hot_region
                     && not (List.mem nd.id keep))
              |> List.map (fun (nd : Node.t) -> (load_of (fst (Node.region nd)), nd.Node.id))
              |> List.sort (fun (l1, i1) (l2, i2) ->
                     match Int.compare l1 l2 with 0 -> Int.compare i1 i2 | c -> c)
              |> List.filteri (fun i _ -> i < wanted)
              |> List.map snd
          in
          let boosts = keep @ fresh in
          if boosts <> [] then begin
            owner.Node.boosts <- boosts;
            let region = Node.region owner in
            let spread = owner.Node.id :: boosts in
            let items = region_items owner in
            (* Refresh every boost (old and new) with the current
               content: staleness is bounded by the round interval. *)
            List.iter (sync owner.Node.id ~region ~spread ~items net) boosts;
            spawned := !spawned + List.length fresh;
            refreshed := !refreshed + List.length keep
          end)
      hot;
    (* Hysteresis: stand boosts down only once the load drops below half
       the spawn threshold, so a region hovering near the line does not
       thrash between spawn and retire every round. *)
    List.iter
      (fun (nd : Node.t) ->
        if nd.Node.boosts <> [] then begin
          let lo = fst (Node.region nd) in
          let l = load_of lo in
          if is_cool l && not (is_hot l) then begin
            let live_boosts = List.filter (Net.Oracle.is_alive net) nd.Node.boosts (* srclint: allow oracle item-12 *) in
            List.iter (retire nd.Node.id net) live_boosts;
            retired := !retired + List.length live_boosts;
            nd.Node.boosts <- []
          end
        end)
      live;
    incr ov "balance.spawned" ~by:!spawned;
    incr ov "balance.refreshed" ~by:!refreshed;
    incr ov "balance.retired" ~by:!retired;
    { regions_seen = n; hot; spawned = !spawned; refreshed = !refreshed; retired = !retired }
