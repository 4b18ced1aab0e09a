module Store = Unistore_pgrid.Store
module Sim = Unistore_sim.Sim
module Strdist = Unistore_util.Strdist
module Topk = Unistore_util.Topk
module Cps = Unistore_util.Cps

type t = { dht : Dht.t; qgrams : bool }

type meta = {
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
  latency : float;
  messages : int;
}

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

let all_ok k oks = k (List.for_all Fun.id oks)

let insert t ~origin tr ~k =
  let payload = Triple.serialize tr in
  let item_id = Triple.id tr in
  Cps.all
    (fun key ~k -> t.dht.Dht.insert ~origin ~key ~item_id ~payload ~k)
    (index_keys t tr) ~k:(all_ok k)

let delete t ~origin tr ~k =
  let item_id = Triple.id tr in
  Cps.all (fun key ~k -> t.dht.Dht.delete ~origin ~key ~item_id ~k) (index_keys t tr) ~k:(all_ok k)

(* Replacing the value of one (OID, attribute, old) triple is a delete of
   the old index entries plus an insert of the new ones — the key changes
   with the value, so LWW versioning alone cannot express it. *)
let update_value t ~origin ~oid ~attr ~old_value new_value ~k =
  delete t ~origin (Triple.make ~oid ~attr old_value) ~k:(fun deleted ->
      insert t ~origin (Triple.make ~oid ~attr new_value) ~k:(fun inserted ->
          k (deleted && inserted)))

(* One triple after another, as a tuple's fields are listed. *)
let insert_tuple t ~origin ~oid fields ~k =
  Cps.fold
    (fun n tr ~k -> insert t ~origin tr ~k:(fun ok -> k (if ok then n + 1 else n)))
    0
    (Triple.tuple_to_triples ~oid fields)
    ~k

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
  match t.dht.Dht.bulk_insert with
  | Some bulk -> bulk ~origin ~items:(items_of_triples t triples) ~k:(fun r -> k r.Dht.complete)
  | None -> Cps.all (insert t ~origin) triples ~k:(all_ok k)

(* ------------------------------------------------------------------ *)
(* Result decoding                                                     *)

(* Each item of a reply decodes once. A reply holds at most one item per
   (key, item id): a store keeps one, the overlay dedupes what replicas
   return ([Request.dedupe_items]), and the Chord adapter drops
   broadcast replicas ({!Dht}). A triple has one key in each of the O,
   A#v and V families ([index_keys]), so only q-gram keys can repeat an
   item id within a reply; those items alone go through a first-seen
   table on the id, which is the triple's {!Triple.id} (set at
   insertion). First-seen is deterministic because store scans are —
   every backend yields items in ascending key order, newest-first
   within a key (the ordering contract of {!Unistore_pgrid.Store_intf},
   checked differentially by test/test_store.ml), and the overlay sorts
   merged multi-peer replies before they reach us. *)
module Ids = Hashtbl.Make (String)

let decode_items items =
  let decode (i : Store.item) = Triple.deserialize i.Store.payload in
  let gram (i : Store.item) = Keys.is_qgram_key i.Store.key in
  if not (List.exists gram items) then List.filter_map decode items
  else begin
    let seen = Ids.create 16 in
    List.filter_map
      (fun (i : Store.item) ->
        if not (gram i) then decode i
        else if Ids.mem seen i.Store.item_id then None
        else
          match decode i with
          | Some tr ->
            Ids.add seen i.Store.item_id ();
            Some tr
          | None -> None)
      items
  end

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
  match t.dht.Dht.multi_lookup with
  | Some multi_lookup ->
    multi_lookup ~origin ~keys ~k:(fun (found, r) ->
        k (List.concat_map snd found, { r with Dht.items = [] }))
  | None ->
    (* Items merge in arrival order, so they gather inside each lookup's
       continuation; the cost folds over the list. *)
    let acc = ref [] in
    let started = Sim.now t.dht.Dht.sim in
    let lookup key ~k =
      t.dht.Dht.lookup ~origin ~key ~k:(fun r ->
          acc := List.rev_append r.Dht.items !acc;
          k r)
    in
    Cps.all lookup keys ~k:(fun rs ->
        let merge (m : Dht.result) (r : Dht.result) =
          {
            m with
            Dht.hops = max m.Dht.hops r.Dht.hops;
            peers_hit = m.Dht.peers_hit + r.Dht.peers_hit;
            complete = m.Dht.complete && r.Dht.complete;
            completeness = Float.min m.Dht.completeness r.Dht.completeness;
          }
        in
        let m = List.fold_left merge Store.empty_result rs in
        k (!acc, { m with Dht.latency = Sim.now t.dht.Dht.sim -. started }))

(* ------------------------------------------------------------------ *)
(* Similarity selection                                                *)

let qgram_applicable t ~pattern ~d = t.qgrams && Keys.edist_indexable ~pattern ~d

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

let substring_applicable t ~pattern = t.qgrams && Keys.substring_indexable ~pattern

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
  Cps.all (insert t ~origin) [ t1; t2 ] ~k:(all_ok k)

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
      (* The next frontier grows in arrival order, inside each lookup's
         continuation. *)
      let next = ref [] in
      let visit a ~k =
        by_oid t ~origin (mapping_oid a) ~k:(fun (triples, _) ->
            List.iter
              (fun (tr : Triple.t) ->
                match Value.as_string tr.Triple.value with
                | Some b when not (Hashtbl.mem seen b) ->
                  Hashtbl.replace seen b ();
                  next := b :: !next
                | _ -> ())
              triples;
            k ())
      in
      Cps.all visit frontier ~k:(fun _ -> expand !next (depth + 1))
    end
  in
  expand [ attr ] 0

(* ------------------------------------------------------------------ *)
(* Blocking read (kept for callers outside the query stack)            *)

let by_oid_sync t ~origin oid =
  let m0 = t.dht.Dht.total_sent () in
  let meta ~hops ~peers_hit ~complete ~completeness ~latency =
    { hops; peers_hit; complete; completeness; latency; messages = t.dht.Dht.total_sent () - m0 }
  in
  let read k = by_oid t ~origin oid ~k in
  let awaited = Sim.await t.dht.Dht.sim read (* srclint: allow blocking-wait *) in
  match awaited with
  | Some (triples, r) ->
    ( triples,
      meta ~hops:r.Dht.hops ~peers_hit:r.Dht.peers_hit ~complete:r.Dht.complete
        ~completeness:r.Dht.completeness ~latency:r.Dht.latency )
  | None -> ([], meta ~hops:0 ~peers_hit:0 ~complete:false ~completeness:0.0 ~latency:0.0)
