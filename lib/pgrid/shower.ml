(* Range showers and in-network aggregation: a shower splits its clip
   across [me]'s complementary subtrees level by level, interior peers
   buffer their children's hits and merge them before replying upward,
   and a sequential range walks the covering leaves one after another.
   Broadcast probes split like a shower without buffering. Every hit is
   accounted by token at the origin ({!Request.hit}). *)

open Routing

(* Children buffered per aggregation node; additional children reply
   straight to the origin. *)
let agg_fanin = 8

(* Aggregation buffers flush partial merges after this long, so loss or
   churn below still terminates; well under the retry timeout. *)
let agg_flush_ms = 2_500.0

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
   when [me] is the origin, else as a [RangeHit] sent there. [from] is
   the peer the origin credits with the hit. *)
let report_hit t (me : Node.t) ~from ~rid ~token ~origin ~hops ~items ~targets =
  if me.id = origin then Request.hit t.requests rid ~from ~token ~items ~targets ~hops
  else
    Net.send t.net ~src:me.id ~dst:origin
      (Message.RangeHit { rid; token; items; targets; origin; hops })

(* Send an aggregation buffer's merged hit upward, once: the last
   child's hit and the flush timer each find the buffer only before the
   flush, which drops its [t.aggs] entries and cancels the timer.
   [reason] is ["complete"] (every buffered child answered) or
   ["timeout"] (loss or churn below): leftover waiting tokens travel as
   targets so the origin still accounts for them — their hits, if any
   straggle in later, find no buffer and are relayed home. *)
let flush_agg t (a : agg) ~reason =
  ignore (Sim.cancel t.sim a.flush_timer);
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

(* A [RangeHit] arrived at [me]: merge it into the buffer waiting for its
   token, else hand it to the origin's accounting. A non-origin peer with
   no buffer for it (the buffer already flushed on timeout) relays the
   straggler home so the origin still sees its token. *)
let handle_hit t (me : Node.t) ~src ~rid ~token ~items ~targets ~origin ~hops =
  match Hashtbl.find_opt t.aggs token with
  | Some a ->
    Hashtbl.remove t.aggs token;
    a.waiting <- List.filter (fun x -> x <> token) a.waiting;
    a.carried <- List.rev_append targets a.carried;
    a.agg_items <- List.rev_append items a.agg_items;
    a.agg_hops <- max a.agg_hops hops;
    cache_incr t "batch.agg.merged";
    if a.waiting = [] then flush_agg t a ~reason:"complete"
  | None ->
    if me.id <> origin then cache_incr t "batch.agg.relayed";
    report_hit t me ~from:src ~rid ~token ~origin ~hops ~items ~targets

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
  report_hit t me ~from:me.id ~rid ~token ~origin ~hops ~items:(local ()) ~targets

let shower_range t (me : Node.t) (r : Message.range) =
  let { Message.rid; token; lo; hi; clip_lo; clip_hi; origin; reply_to; hops; _ } = r in
  let forward ~reply_to ~dst ~token ~clip_lo ~clip_hi =
    Net.send t.net ~src:me.id ~dst
      (Message.Range { r with token; clip_lo; clip_hi; reply_to; hops = hops + 1 })
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
          flush_timer = Sim.no_timer;
        }
      in
      List.iter (fun tok -> Hashtbl.replace t.aggs tok a) waiting;
      a.flush_timer <-
        Sim.timer t.sim ~delay:agg_flush_ms (fun () -> flush_agg t a ~reason:"timeout")

(* Every receiving peer reports a hit (routing-only peers report an
   empty one naming their next hop) so the origin's termination
   tracking stays exact. *)
let sequential_range t (me : Node.t) (r : Message.range) =
  let { Message.rid; token; lo; hi; clip_lo; origin; hops; budget; _ } = r in
  let emit items targets = report_hit t me ~from:me.id ~rid ~token ~origin ~hops ~items ~targets in
  let forward p ~clip_lo ~budget =
    let tok = fresh_rid t in
    Net.send t.net ~src:me.id ~dst:p
      (Message.Range { r with token = tok; clip_lo; reply_to = origin; hops = hops + 1; budget });
    tok
  in
  if not (Node.covers me clip_lo) then begin
    (* Still routing toward the low end of the remaining range. *)
    match route_step t me clip_lo with
    | `Forward p when not (too_far t hops) -> emit [] [ forward p ~clip_lo ~budget ]
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
        | `Forward p -> [ forward p ~clip_lo:nxt ~budget:budget_left ]
        | `Local | `Stuck -> [])
    in
    emit items targets
  end

let handle_range t me (r : Message.range) =
  match r.strategy with Shower -> shower_range t me r | Sequential -> sequential_range t me r

let handle_probe t (me : Node.t) ~rid ~token ~clip_lo ~clip_hi ~origin ~hops ~pred ~reduce =
  let local () =
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

(* Peers currently holding an unflushed aggregation buffer (a flush
   drops the buffer's entries). *)
let agg_owners t =
  Hashtbl.fold (fun _ a acc -> a.agg_owner :: acc) t.aggs []
  |> List.sort_uniq compare
