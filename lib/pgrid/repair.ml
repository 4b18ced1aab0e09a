module Bitkey = Unistore_util.Bitkey

(* Self-healing maintenance: one repair round over the whole overlay.

   Crashes deplete replica groups (a leaf served by fewer live peers than
   [Config.replication] loses data for good if the rest die too) and
   leave routing tables pointing at corpses. A repair round runs the
   counter-measures P-Grid relies on between churn waves:

   1. re-point dead routing references at live peers of the right
      subtree ({!Build.repair_refs});
   2. adopt stray same-path peers (e.g. freshly joined or revived ones)
      into their leaf's replica group — mutual registration, the same
      bookkeeping {!Build.join} does for a bootstrap;
   3. re-replicate: move spare peers from over-replicated leaves into
      depleted ones — the migrant takes the depleted leaf's path and
      boundaries, drops state it no longer covers, receives a full copy
      from a surviving member (one accounted [Replicate] transfer), and
      registers with the group;
   4. drop routing shortcuts that point at dead or migrated peers, so
      the next queries re-learn honest ones.

   Everything is deterministic: groups are visited in path order, members
   in id order, and migrants are assigned greedily (neediest leaf first).
   Like {!Build.repair_refs}, steps 2–4 run as god-mode bookkeeping (the
   simulated cost is the state transfer, which dominates in practice). *)

type report = {
  adopted : int;  (** stray same-path peers newly registered into groups *)
  moved : int;  (** peers migrated into depleted replica groups *)
  resynced_bytes : int;  (** payload shipped by migration state transfers *)
  shortcuts_dropped : int;  (** stale shortcut entries invalidated *)
  unrepaired : int;  (** groups still below replication (no donors left) *)
}

let group_key (nd : Node.t) = Bitkey.to_string nd.Node.path

(* Leaf groups by path, members sorted by id; deterministic order. *)
let leaf_groups ov =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (nd : Node.t) ->
      let key = group_key nd in
      match Hashtbl.find_opt tbl key with
      | Some r -> r := nd :: !r
      | None -> Hashtbl.add tbl key (ref [ nd ]))
    (Overlay.nodes ov);
  Hashtbl.fold (fun key r acc -> (key, List.rev !r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let adopt_strays ov groups =
  let adopted = ref 0 in
  List.iter
    (fun (_, members) ->
      let alive = List.filter (fun (nd : Node.t) -> Overlay.Oracle.alive ov nd.Node.id) members (* srclint: allow oracle item-19 *) in
      List.iter
        (fun (a : Node.t) ->
          List.iter
            (fun (b : Node.t) ->
              if a.id <> b.id && not (List.mem b.id a.replicas) then begin
                Node.add_replica a b.id;
                incr adopted
              end)
            alive)
        alive)
    groups;
  !adopted

(* Migrate [d] into the group led by live [template]: leave the old
   group, clone the template's position and routing state, drop items
   outside the new region (still replicated at the donors), and receive
   the template's data as one accounted [Replicate] message. *)
let migrate ov ~(d : Node.t) ~(template : Node.t) ~new_members =
  let net = Overlay.net ov in
  (* Unregister from the old group — every old member, dead ones
     included, or their replica lists go stale when they revive. *)
  List.iter
    (fun r ->
      match Overlay.node ov r with
      | old -> Node.remove_replica old d.id
      | exception Invalid_argument _ -> ())
    d.replicas;
  List.iter (fun r -> Node.remove_replica d r) d.replicas;
  (* Old-position routing references to [d] are wrong the moment it
     moves; scrub them everywhere and let [repair_refs] refill. *)
  List.iter (fun (nd : Node.t) -> if nd.id <> d.id then Node.remove_ref nd d.id) (Overlay.nodes ov);
  (* Take the new position: path, boundaries, and the template's refs. *)
  Node.adopt_position d ~template ~cap:(Overlay.config ov).Config.refs_per_level;
  (* Items outside the new region stay replicated at the old group's
     surviving members; keeping them here would trip the misplaced-item
     audit. *)
  ignore (Store.filter_partition d.store (fun i -> Node.covers d i.Store.key));
  (* Register with the whole new group (dead members revive in place). *)
  List.iter
    (fun (m : Node.t) ->
      if m.id <> d.id then begin
        Node.add_replica d m.id;
        Node.add_replica m d.id
      end)
    new_members;
  (* State transfer from the surviving member, as a real message; the
     template's tombstones go along, so no delete is undone. *)
  let items = Store.to_list template.store @ Store.tombstones template.store in
  let bytes = Wire.items_bytes items in
  Net.send net ~src:template.id ~dst:d.id (Message.Replicate { items; rounds_left = 0 });
  bytes

let round ov =
  let net = Overlay.net ov in
  (* Routing first: adoption and migration below route nothing, but a
     clean table makes the group scan's view of liveness meaningful. *)
  Build.repair_refs ov;
  let groups = leaf_groups ov in
  let adopted = adopt_strays ov groups in
  let repl = (Overlay.config ov).Config.replication in
  let alive_of members = List.filter (fun (nd : Node.t) -> Overlay.Oracle.alive ov nd.Node.id) members (* srclint: allow oracle item-19 *) in
  (* Donor pool: groups keep [repl] live members (lowest ids); the rest
     are spare and may be reassigned. *)
  let spares =
    List.concat_map
      (fun (_, members) ->
        let alive = alive_of members in
        if List.length alive > repl then List.filteri (fun i _ -> i >= repl) alive else [])
      groups
  in
  let spares = ref spares in
  let moved = ref 0 and resynced = ref 0 and unrepaired = ref 0 in
  let moved_ids = ref [] in
  let depleted =
    List.filter
      (fun (_, members) ->
        let n = List.length (alive_of members) in
        n > 0 && n < repl)
      groups
    (* Neediest leaf first, path order breaking ties. *)
    |> List.sort (fun (ka, a) (kb, b) ->
           match compare (List.length (alive_of a)) (List.length (alive_of b)) with
           | 0 -> String.compare ka kb
           | c -> c)
  in
  List.iter
    (fun (_, members) ->
      let missing = repl - List.length (alive_of members) in
      let template = List.hd (alive_of members) in
      let still_missing = ref missing in
      while
        !still_missing > 0
        &&
        match !spares with
        | [] -> false
        | d :: rest ->
          spares := rest;
          resynced := !resynced + migrate ov ~d ~template ~new_members:members;
          moved_ids := d.Node.id :: !moved_ids;
          moved := !moved + 1;
          decr still_missing;
          true
      do
        ()
      done;
      if !still_missing > 0 then incr unrepaired)
    depleted;
  (* Migrations changed subtree membership: refill the holes the scrub
     left and give migrants referrers in their new subtree. *)
  if !moved > 0 then Build.repair_refs ov;
  (* Invalidate routing shortcuts that point at dead or migrated peers —
     a migrant serves a different region now, so a stale hit would
     misroute (correct but slower); a dead hit would eat a timeout. *)
  let stale p = (not (Net.Oracle.is_alive net p)) (* srclint: allow oracle item-19 *) || List.mem p !moved_ids in
  let dropped =
    List.fold_left
      (fun acc (nd : Node.t) ->
        if Overlay.Oracle.alive ov nd.Node.id (* srclint: allow oracle item-19 *) then
          acc + Unistore_cache.Shortcuts.invalidate_where nd.Node.shortcuts ~f:stale
        else acc)
      0 (Overlay.nodes ov)
  in
  (match Overlay.metrics ov with
  | Some m ->
    Unistore_obs.Metrics.incr m "fault.repair.rounds";
    if adopted > 0 then Unistore_obs.Metrics.incr m ~by:adopted "fault.repair.adopted";
    if !moved > 0 then Unistore_obs.Metrics.incr m ~by:!moved "fault.repair.moved";
    if dropped > 0 then Unistore_obs.Metrics.incr m ~by:dropped "cache.shortcut.invalidate"
  | None -> ());
  {
    adopted;
    moved = !moved;
    resynced_bytes = !resynced;
    shortcuts_dropped = dropped;
    unrepaired = !unrepaired;
  }
