module Store = Unistore_pgrid.Store
module Sim = Unistore_sim.Sim
module Strdist = Unistore_util.Strdist
module Topk = Unistore_util.Topk

type t = { dht : Dht.t; qgrams : bool }

type meta = {
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
  latency : float;
  messages : int;
}

let pp_meta fmt m =
  Format.fprintf fmt "hops=%d peers=%d complete=%b coverage=%.2f latency=%.1fms msgs=%d" m.hops
    m.peers_hit m.complete m.completeness m.latency m.messages

let create ?(qgrams = true) dht = { dht; qgrams }
let dht t = t.dht
let qgrams_enabled t = t.qgrams

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)

let index_keys t (tr : Triple.t) =
  let base =
    [ Keys.oid_key tr.Triple.oid; Keys.attr_value_key tr.Triple.attr tr.Triple.value;
      Keys.value_key tr.Triple.value ]
  in
  let grams =
    if t.qgrams then
      match Value.as_string tr.Triple.value with
      | Some s -> List.map Keys.qgram_key (Strdist.distinct_qgrams ~q:Keys.q s)
      | None -> []
    else []
  in
  base @ grams

let insert t ~origin tr ~k =
  let payload = Triple.serialize tr in
  let item_id = Triple.id tr in
  let keys = index_keys t tr in
  let outstanding = ref (List.length keys) in
  let ok = ref true in
  List.iter
    (fun key ->
      t.dht.Dht.insert ~origin ~key ~item_id ~payload ~k:(fun success ->
          if not success then ok := false;
          decr outstanding;
          if !outstanding = 0 then k !ok))
    keys

let insert_sync t ~origin tr =
  let cell = ref None in
  insert t ~origin tr ~k:(fun ok -> cell := Some ok);
  ignore (Sim.run_until t.dht.Dht.sim (fun () -> !cell <> None));
  Option.value ~default:false !cell

let delete t ~origin tr ~k =
  let item_id = Triple.id tr in
  let keys = index_keys t tr in
  let outstanding = ref (List.length keys) in
  let ok = ref true in
  List.iter
    (fun key ->
      t.dht.Dht.delete ~origin ~key ~item_id ~k:(fun success ->
          if not success then ok := false;
          decr outstanding;
          if !outstanding = 0 then k !ok))
    keys

let delete_sync t ~origin tr =
  let cell = ref None in
  delete t ~origin tr ~k:(fun ok -> cell := Some ok);
  ignore (Sim.run_until t.dht.Dht.sim (fun () -> !cell <> None));
  Option.value ~default:false !cell

(* Replacing the value of one (OID, attribute, old) triple is a delete of
   the old index entries plus an insert of the new ones — the key changes
   with the value, so LWW versioning alone cannot express it. *)
let update_value_sync t ~origin ~oid ~attr ~old_value new_value =
  let old_triple = Triple.make ~oid ~attr old_value in
  let new_triple = Triple.make ~oid ~attr new_value in
  let deleted = delete_sync t ~origin old_triple in
  let inserted = insert_sync t ~origin new_triple in
  deleted && inserted

let insert_tuple_sync t ~origin ~oid fields =
  let triples = Triple.tuple_to_triples ~oid fields in
  List.fold_left (fun acc tr -> if insert_sync t ~origin tr then acc + 1 else acc) 0 triples

(* Bulk insertion: materialize every index entry of every triple and ship
   them as one batch. Falls back to per-triple insertion when the
   substrate has no batch path. *)
let items_of_triples t triples =
  List.concat_map
    (fun tr ->
      let payload = Triple.serialize tr in
      let item_id = Triple.id tr in
      List.map
        (fun key -> { Store.key; item_id; payload; version = 0 })
        (index_keys t tr))
    triples

let insert_bulk t ~origin triples ~k =
  match (triples, t.dht.Dht.bulk_insert) with
  | [], _ -> k true
  | _, Some bulk -> bulk ~origin ~items:(items_of_triples t triples) ~k:(fun r -> k r.Dht.complete)
  | _, None ->
    let outstanding = ref (List.length triples) in
    let ok = ref true in
    List.iter
      (fun tr ->
        insert t ~origin tr ~k:(fun success ->
            if not success then ok := false;
            decr outstanding;
            if !outstanding = 0 then k !ok))
      triples

let insert_bulk_sync t ~origin triples =
  let cell = ref None in
  insert_bulk t ~origin triples ~k:(fun ok -> cell := Some ok);
  ignore (Sim.run_until t.dht.Dht.sim (fun () -> !cell <> None));
  Option.value ~default:false !cell

(* ------------------------------------------------------------------ *)
(* Result decoding                                                     *)

(* First-seen dedup: when two replicas answer with different versions
   of a triple, the one earlier in the reply list wins. That is only
   deterministic because store scans are — every backend yields items
   in ascending key order, newest-first within a key (the ordering
   contract of {!Unistore_pgrid.Store_intf}, checked differentially by
   test/test_store.ml), and the overlay sorts merged multi-peer replies
   ([Overlay.dedupe_items]) before they reach us. If backends disagreed
   on scan order, same-seed runs with different [--backend] settings
   would return different triples here. *)
let decode_items items =
  let seen = Hashtbl.create (List.length items) in
  List.filter_map
    (fun (i : Store.item) ->
      match Triple.deserialize i.Store.payload with
      | Some tr ->
        let id = Triple.id tr in
        if Hashtbl.mem seen id then None
        else begin
          Hashtbl.replace seen id ();
          Some tr
        end
      | None -> None)
    items

let decoded k (r : Dht.result) = k (decode_items r.Dht.items, r)

(* ------------------------------------------------------------------ *)
(* Access paths                                                        *)

let by_oid t ~origin oid ~k = t.dht.Dht.lookup ~origin ~key:(Keys.oid_key oid) ~k:(decoded k)

let by_attr_value t ~origin ~attr v ~k =
  t.dht.Dht.lookup ~origin ~key:(Keys.attr_value_key attr v) ~k:(decoded k)

let by_attr_range t ~origin ~attr ~lo ~hi ~k =
  let lo, hi = Keys.attr_range attr ~lo ~hi in
  t.dht.Dht.range ~origin ~lo ~hi ~k:(decoded k)

let by_attr_all t ~origin ~attr ~k =
  t.dht.Dht.prefix ~origin ~prefix:(Keys.attr_prefix attr) ~k:(decoded k)

let by_attr_string_prefix t ~origin ~attr ~string_prefix ~k =
  t.dht.Dht.prefix ~origin ~prefix:(Keys.attr_string_prefix attr ~string_prefix) ~k:(decoded k)

let by_value t ~origin v ~k = t.dht.Dht.lookup ~origin ~key:(Keys.value_key v) ~k:(decoded k)

let by_value_range t ~origin ~lo ~hi ~k =
  let lo, hi = Keys.value_range ~lo ~hi in
  t.dht.Dht.range ~origin ~lo ~hi ~k:(decoded k)

let top_n_by_attr t ~origin ~attr ~n ?lo ?hi ~k () =
  let lo_key =
    match lo with
    | Some v -> Keys.attr_value_key attr v
    | None -> Keys.attr_prefix attr
  in
  let hi_key =
    match hi with
    | Some v -> Keys.attr_value_key attr v
    | None -> Keys.attr_prefix attr ^ String.make 64 '\xff'
  in
  let finish (r : Dht.result) =
    let triples = decode_items r.Dht.items in
    let cmp (a : Triple.t) b = Value.compare a.Triple.value b.Triple.value in
    k (Topk.smallest ~cmp n triples, r)
  in
  match t.dht.Dht.range_topn with
  | Some range_topn -> range_topn ~origin ~lo:lo_key ~hi:hi_key ~n ~k:finish
  | None -> t.dht.Dht.range ~origin ~lo:lo_key ~hi:hi_key ~k:finish

let scan t ~origin ~pred ~k =
  (* Scan only the A#v index family so each triple is considered once. *)
  let item_pred (i : Store.item) =
    String.length i.Store.key >= 2
    && i.Store.key.[0] = 'A'
    && i.Store.key.[1] = '\000'
    &&
    match Triple.deserialize i.Store.payload with Some tr -> pred tr | None -> false
  in
  t.dht.Dht.broadcast ~origin ~pred:item_pred ~k:(decoded k)

(* ------------------------------------------------------------------ *)
(* Reduced OID-region scan (skyline pushdown)                          *)

let skyline_scan_supported t = t.dht.Dht.scan_reduce <> None

let oid_scan_reduce t ~origin ~pred ~reduce ~k =
  let item_pred (i : Store.item) =
    String.length i.Store.key >= 2
    && i.Store.key.[0] = 'O'
    && i.Store.key.[1] = '\000'
    &&
    match Triple.deserialize i.Store.payload with Some tr -> pred tr | None -> false
  in
  match t.dht.Dht.scan_reduce with
  | Some scan_reduce ->
    (* Lift the triple-level reduction to items: decode, reduce, keep
       exactly the items whose triples survived (reduce only drops, so
       id membership is a faithful back-mapping). *)
    let item_reduce items =
      let decoded =
        List.filter_map
          (fun (i : Store.item) ->
            match Triple.deserialize i.Store.payload with
            | Some tr -> Some (i, tr)
            | None -> None)
          items
      in
      let survivors = reduce (List.map snd decoded) in
      let keep = Hashtbl.create (max 1 (List.length survivors)) in
      List.iter (fun tr -> Hashtbl.replace keep (Triple.id tr) ()) survivors;
      List.filter_map
        (fun (i, tr) -> if Hashtbl.mem keep (Triple.id tr) then Some i else None)
        decoded
    in
    scan_reduce ~origin ~lo:Keys.oid_prefix ~hi:Keys.oid_region_end ~pred:item_pred
      ~reduce:item_reduce ~k:(decoded k)
  | None -> t.dht.Dht.broadcast ~origin ~pred:item_pred ~k:(decoded k)

(* ------------------------------------------------------------------ *)
(* q-gram candidate fetch (shared by similarity and substring search)  *)

(* Fetch the union of items indexed under [grams]: one batched
   [MultiLookup] where the substrate has the bulk path, otherwise one
   routed lookup per gram. The result record carries the merged cost
   (worst hops/coverage, summed peers); items are returned separately
   and [result.items] is left empty. *)
let fetch_gram_items t ~origin grams ~k =
  let keys = List.map Keys.qgram_key grams in
  match keys with
  | [] ->
    k
      ( [],
        {
          Dht.items = [];
          hops = 0;
          peers_hit = 0;
          complete = true;
          completeness = 1.0;
          latency = 0.0;
        } )
  | _ -> (
    match t.dht.Dht.multi_lookup with
    | Some multi_lookup ->
      multi_lookup ~origin ~keys ~k:(fun (found, r) ->
          k (List.concat_map snd found, { r with Dht.items = [] }))
    | None ->
      let outstanding = ref (List.length keys) in
      let acc = ref [] in
      let hops = ref 0 and peers = ref 0 and complete = ref true and cov = ref 1.0 in
      let started = Sim.now t.dht.Dht.sim in
      List.iter
        (fun key ->
          t.dht.Dht.lookup ~origin ~key ~k:(fun r ->
              acc := List.rev_append r.Dht.items !acc;
              hops := max !hops r.Dht.hops;
              peers := !peers + r.Dht.peers_hit;
              if not r.Dht.complete then complete := false;
              cov := Float.min !cov r.Dht.completeness;
              decr outstanding;
              if !outstanding = 0 then
                k
                  ( !acc,
                    {
                      Dht.items = [];
                      hops = !hops;
                      peers_hit = !peers;
                      complete = !complete;
                      completeness = !cov;
                      latency = Sim.now t.dht.Dht.sim -. started;
                    } )))
        keys)

(* ------------------------------------------------------------------ *)
(* Similarity selection                                                *)

(* The q-gram index is complete for this predicate iff every string
   within distance [d] of [pattern] must share at least one q-gram with
   it: max(|p|,|s|) + q - 1 - d*q >= 1, and max >= |p|. *)
let qgram_applicable t ~pattern ~d =
  t.qgrams && String.length pattern + Keys.q - 1 - (d * Keys.q) >= 1

let similar t ~origin ~attr ~pattern ~d ~k =
  let matches (tr : Triple.t) =
    (match attr with None -> true | Some a -> String.equal a tr.Triple.attr)
    &&
    match Value.as_string tr.Triple.value with
    | Some s ->
      Strdist.passes_count_filter ~q:Keys.q pattern s d && Strdist.within_distance pattern s d
    | None -> false
  in
  if not (qgram_applicable t ~pattern ~d) then scan t ~origin ~pred:matches ~k
  else begin
    (* Look up only a count-filter-covering prefix of the pattern's
       grams (rarest first): any string within distance [d] still shares
       at least one of them, so recall is complete while the per-gram
       lookups shrink from |p|+q-1 to about d*q+1. *)
    let grams = Strdist.prefix_grams ~q:Keys.q ~d pattern in
    fetch_gram_items t ~origin grams ~k:(fun (items, r) ->
        let triples = decode_items items |> List.filter matches in
        k (triples, r))
  end

(* ------------------------------------------------------------------ *)
(* Substring search                                                    *)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then true
  else begin
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  end

let substring_applicable t ~pattern = t.qgrams && String.length pattern >= Keys.q

let containing t ~origin ~attr ~pattern ~k =
  let matches (tr : Triple.t) =
    (match attr with None -> true | Some a -> String.equal a tr.Triple.attr)
    &&
    match Value.as_string tr.Triple.value with
    | Some s -> contains_sub s pattern
    | None -> false
  in
  if not (substring_applicable t ~pattern) then scan t ~origin ~pred:matches ~k
  else begin
    (* A containing value holds every pattern gram, so any subset of the
       grams is recall-complete — candidates are verified locally anyway.
       Fetch at most 3 grams spread across the pattern: cheap
       intersection pruning without the full gram fan-out. *)
    let grams =
      let arr = Array.of_list (Strdist.substring_qgrams ~q:Keys.q pattern) in
      let n = Array.length arr in
      if n <= 3 then Array.to_list arr
      else [ arr.(0); arr.(n / 2); arr.(n - 1) ]
    in
    fetch_gram_items t ~origin grams ~k:(fun (items, r) ->
        let triples = decode_items items |> List.filter matches in
        k (triples, r))
  end

(* ------------------------------------------------------------------ *)
(* Schema mappings                                                     *)

let mapping_attr = "sys:maps_to"
let mapping_oid attr = "map:" ^ attr

let add_mapping t ~origin a b ~k =
  let t1 = Triple.make ~oid:(mapping_oid a) ~attr:mapping_attr (Value.S b) in
  let t2 = Triple.make ~oid:(mapping_oid b) ~attr:mapping_attr (Value.S a) in
  let outstanding = ref 2 in
  let ok = ref true in
  let step success =
    if not success then ok := false;
    decr outstanding;
    if !outstanding = 0 then k !ok
  in
  insert t ~origin t1 ~k:step;
  insert t ~origin t2 ~k:step

let equivalent_attrs t ~origin attr ~k =
  (* Bounded BFS over maps_to edges; each frontier level is one round of
     parallel OID lookups. *)
  let max_depth = 3 in
  let seen = Hashtbl.create 8 in
  Hashtbl.replace seen attr ();
  let rec expand frontier depth =
    if frontier = [] || depth >= max_depth then
      k (Hashtbl.fold (fun a () acc -> a :: acc) seen [] |> List.sort compare)
    else begin
      let outstanding = ref (List.length frontier) in
      let next = ref [] in
      List.iter
        (fun a ->
          by_oid t ~origin (mapping_oid a) ~k:(fun (triples, _) ->
              List.iter
                (fun (tr : Triple.t) ->
                  match Value.as_string tr.Triple.value with
                  | Some b when not (Hashtbl.mem seen b) ->
                    Hashtbl.replace seen b ();
                    next := b :: !next
                  | _ -> ())
                triples;
              decr outstanding;
              if !outstanding = 0 then expand !next (depth + 1)))
        frontier
    end
  in
  expand [ attr ] 0

(* ------------------------------------------------------------------ *)
(* Synchronous wrappers                                                *)

let metered t f =
  let before = t.dht.Dht.total_sent () in
  let cell = ref None in
  f (fun r -> cell := Some r);
  ignore (Sim.run_until t.dht.Dht.sim (fun () -> !cell <> None));
  let messages = t.dht.Dht.total_sent () - before in
  match !cell with
  | Some (triples, (r : Dht.result)) ->
    ( triples,
      {
        hops = r.Dht.hops;
        peers_hit = r.Dht.peers_hit;
        complete = r.Dht.complete;
        completeness = r.Dht.completeness;
        latency = r.Dht.latency;
        messages;
      } )
  | None ->
    ([], { hops = 0; peers_hit = 0; complete = false; completeness = 0.0; latency = 0.0; messages })

let by_oid_sync t ~origin oid = metered t (fun k -> by_oid t ~origin oid ~k)

let by_attr_value_sync t ~origin ~attr v = metered t (fun k -> by_attr_value t ~origin ~attr v ~k)

let by_attr_range_sync t ~origin ~attr ~lo ~hi =
  metered t (fun k -> by_attr_range t ~origin ~attr ~lo ~hi ~k)

let by_attr_all_sync t ~origin ~attr = metered t (fun k -> by_attr_all t ~origin ~attr ~k)

let by_attr_string_prefix_sync t ~origin ~attr ~string_prefix =
  metered t (fun k -> by_attr_string_prefix t ~origin ~attr ~string_prefix ~k)

let by_value_sync t ~origin v = metered t (fun k -> by_value t ~origin v ~k)

let top_n_by_attr_sync t ~origin ~attr ~n ?lo ?hi () =
  metered t (fun k -> top_n_by_attr t ~origin ~attr ~n ?lo ?hi ~k ())
let scan_sync t ~origin ~pred = metered t (fun k -> scan t ~origin ~pred ~k)

let oid_scan_reduce_sync t ~origin ~pred ~reduce =
  metered t (fun k -> oid_scan_reduce t ~origin ~pred ~reduce ~k)

let similar_sync t ~origin ?attr ~pattern ~d () =
  metered t (fun k -> similar t ~origin ~attr ~pattern ~d ~k)

let containing_sync t ~origin ?attr ~pattern () =
  metered t (fun k -> containing t ~origin ~attr ~pattern ~k)

let add_mapping_sync t ~origin a b =
  let cell = ref None in
  add_mapping t ~origin a b ~k:(fun ok -> cell := Some ok);
  ignore (Sim.run_until t.dht.Dht.sim (fun () -> !cell <> None));
  Option.value ~default:false !cell

let equivalent_attrs_sync t ~origin attr =
  let cell = ref None in
  equivalent_attrs t ~origin attr ~k:(fun l -> cell := Some l);
  ignore (Sim.run_until t.dht.Dht.sim (fun () -> !cell <> None));
  Option.value ~default:[ attr ] !cell
