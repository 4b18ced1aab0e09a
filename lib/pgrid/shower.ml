(* Range showers: a shower splits its clip across [me]'s complementary
   subtrees level by level, and every peer it reaches sends its hit
   straight to the origin. A sequential range walks the covering leaves
   one after another. Broadcast probes split like a shower. Every hit is
   accounted by token at the origin ({!Request.hit}). *)

open Routing

(* Key intervals: inclusive lo, exclusive optional hi. *)
let interval_intersect (lo1, hi1) (lo2, hi2) =
  let lo = if String.compare lo1 lo2 >= 0 then lo1 else lo2 in
  let hi =
    match (hi1, hi2) with
    | None, h | h, None -> h
    | Some a, Some b -> Some (if String.compare a b <= 0 then a else b)
  in
  match hi with Some h when String.compare lo h >= 0 -> None | _ -> Some (lo, hi)

(* A hit for [token] goes to the origin's token accounting: directly
   when [me] is the origin, else as a [RangeHit] sent there. *)
let report_hit t (me : Node.t) ~rid ~token ~origin ~hops ~items ~targets =
  if me.id = origin then Request.hit t.requests rid ~from:me.id ~token ~items ~targets ~hops
  else Net.send t.net ~src:me.id ~dst:origin (Message.RangeHit { rid; token; items; targets; hops })

(* The shower split of the clip at [me]: one (ref, sub-clip) per
   complementary subtree intersecting it, computed level by level from
   [me]'s own split boundaries, each ref the one deepest along its
   sub-clip's low end, where the sub-clip's first leaf lies — plus one
   [Message.hop_limited] target per such sub-clip when the hop limit
   forbids forwarding any. At the origin ([hops = 0]) a known peer
   deeper along the low end than the ref takes the sub-clip instead
   ([deepest_known]): it lies in the same subtree, and its own split
   covers the rest of the sub-clip. *)
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
      match choose_ref t me ~key:lo' l with
      | Some p ->
        let p = if hops = 0 then deepest_known t me lo' p else p in
        acc := (p, lo', hi') :: !acc
      | None -> ())
    | None -> ());
    if mybit then plo := boundary else phi := Some boundary
  done;
  (List.rev !acc, !cut)

(* Shower processing at [me], given its split of the clip: forward each
   sub-clip to its reference under a fresh token, and report [items]
   (my own region's answer) to the origin, naming those tokens. *)
let process_shower t (me : Node.t) ~rid ~token ~origin ~hops (splits, cut) ~items ~forward =
  let targets =
    List.map
      (fun (p, lo', hi') ->
        let tok = fresh_rid t in
        forward ~dst:p ~token:tok ~clip_lo:lo' ~clip_hi:hi';
        tok)
      splits
    @ cut
  in
  report_hit t me ~rid ~token ~origin ~hops ~items ~targets

(* The local answer to a filtered range: the items its semi-join filter
   admits, the others counted as [scan.semijoin.dropped]. *)
let admitted t (r : Message.range) items =
  match r.filter with
  | None -> items
  | Some f ->
    let kept = List.filter f.admits items in
    let dropped = List.length items - List.length kept in
    if dropped > 0 then cache_incr t ~by:dropped "scan.semijoin.dropped";
    kept

let shower_range t (me : Node.t) (r : Message.range) =
  let { Message.rid; token; lo; hi; clip_lo; clip_hi; origin; hops; _ } = r in
  let forward ~dst ~token ~clip_lo ~clip_hi =
    Net.send t.net ~src:me.id ~dst (Message.Range { r with token; clip_lo; clip_hi; hops = hops + 1 })
  in
  let splits = shower_splits t me ~hops ~clip_lo ~clip_hi in
  let items = Store.range me.store ~lo ~hi in
  match (items, splits) with
  | [], ([ (p, lo', hi') ], _) when me.id <> origin ->
    (* Path compression: nothing local and a single subtree — pass my
       token through and let the child answer for me; my own (empty)
       hit is elided entirely. *)
    cache_incr t "batch.agg.elided";
    cache_incr t ~by:Message.header "batch.bytes.saved";
    forward ~dst:p ~token ~clip_lo:lo' ~clip_hi:hi'
  | _ ->
    (* Filtering after the compression decision keeps the messages (how
       many, which, between whom) those of the unfiltered range: only
       the hits' items shrink. *)
    process_shower t me ~rid ~token ~origin ~hops splits ~items:(admitted t r items) ~forward

(* The first [b] of [items] (in key order). Within a key a store keeps
   insertion order, which differs between replicas, so the key the cut
   falls in keeps its smallest item ids: every replica answers alike. *)
let first_items b items =
  if List.compare_length_with items b <= 0 then items
  else
    let kept = List.filteri (fun i _ -> i < b) items in
    match List.rev kept with
    | [] -> []
    | (last : Store.item) :: _ ->
      let tied (i : Store.item) = String.equal i.key last.key in
      let before = List.filter (fun i -> not (tied i)) kept in
      let by_id (a : Store.item) (b : Store.item) = String.compare a.item_id b.item_id in
      List.filter tied items
      |> List.sort by_id
      |> List.filteri (fun i _ -> i < b - List.length before)
      |> List.append before

(* Every receiving peer reports a hit (routing-only peers report an
   empty one naming their next hop) so the origin's termination
   tracking stays exact. *)
let sequential_range t (me : Node.t) (r : Message.range) =
  let { Message.rid; token; lo; hi; clip_lo; origin; hops; budget; _ } = r in
  let emit items targets = report_hit t me ~rid ~token ~origin ~hops ~items ~targets in
  let forward p ~clip_lo ~budget =
    let tok = fresh_rid t in
    Net.send t.net ~src:me.id ~dst:p
      (Message.Range { r with token = tok; clip_lo; hops = hops + 1; budget });
    tok
  in
  if not (Node.covers me clip_lo) then begin
    (* Still routing toward the low end of the remaining range; the
       origin's first hop goes to the deepest known peer. *)
    match route_step t me clip_lo with
    | `Forward p when not (too_far t hops) ->
      let p = if hops = 0 then deepest_known t me clip_lo p else p in
      emit [] [ forward p ~clip_lo ~budget ]
    | `Forward _ -> emit [] [ Message.hop_limited ]
    | `Local | `Stuck -> emit [] []
  end
  else begin
    let items = admitted t r (Store.range me.store ~lo ~hi) in
    (* Key order = value order (order-preserving encodings), so a
       result budget lets top-N traversals stop early. *)
    let items, budget_left =
      match budget with
      | None -> (items, None)
      | Some b ->
        let kept = first_items b items in
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
        | `Forward p -> [ forward p ~clip_lo:nxt ~budget:budget_left ]
        | `Local | `Stuck -> [])
    in
    emit items targets
  end

let handle_range t me (r : Message.range) =
  match r.strategy with Shower -> shower_range t me r | Sequential -> sequential_range t me r

let handle_probe t (me : Node.t) ~rid ~token ~clip_lo ~clip_hi ~origin ~hops ~pred ~reduce =
  let items =
    (* Only the clip's items: a store may hold keys outside it. The
       prepends leave them in descending key order. *)
    let acc = ref [] in
    Store.iter_clip me.store ~lo:clip_lo ~hi:clip_hi (fun i -> if pred i then acc := i :: !acc);
    (* Leaf-side partial reduction (e.g. a local skyline): items the
       reducer drops never cross the network. *)
    match reduce with
    | None -> !acc
    | Some f ->
      let before = !acc in
      let after = f before in
      let saved = Wire.items_bytes before - Wire.items_bytes after in
      if saved > 0 then cache_incr t ~by:saved "probe.reduce.bytes.saved";
      after
  in
  let forward ~dst ~token ~clip_lo ~clip_hi =
    Net.send t.net ~src:me.id ~dst
      (Message.Probe { rid; token; clip_lo; clip_hi; origin; hops = hops + 1; pred; reduce })
  in
  let splits = shower_splits t me ~hops ~clip_lo ~clip_hi in
  process_shower t me ~rid ~token ~origin ~hops splits ~items ~forward
