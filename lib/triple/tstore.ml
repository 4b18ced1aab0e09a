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

(* A triple's O, A#v and V keys: each holds the serialized triple. *)
let base_keys (tr : Triple.t) =
  [ Keys.oid_key tr.Triple.oid; Keys.attr_value_key tr.Triple.attr tr.Triple.value;
    Keys.value_key tr.Triple.value ]

(* One key per distinct q-gram of a string value: each holds an entry
   naming the value, not the triple. *)
let gram_keys ~qgrams v =
  if qgrams then
    match Value.as_string v with
    | Some s -> List.map Keys.qgram_key (Strdist.distinct_qgrams ~q:Keys.q s)
    | None -> []
  else []

let index_keys ~qgrams (tr : Triple.t) = base_keys tr @ gram_keys ~qgrams tr.Triple.value

(* The entries [index_keys] names: the triple (id {!Triple.id}) under
   its base keys, and the value (id [Value.encode v], empty payload)
   under its gram keys, so a peer keeps one gram entry per distinct
   string however many triples hold it. *)
let items_of_triple t (tr : Triple.t) =
  let entry item_id payload key = { Store.key; item_id; payload; version = 0 } in
  List.map (entry (Triple.id tr) (Triple.serialize tr)) (base_keys tr)
  @ List.map (entry (Value.encode tr.Triple.value) "") (gram_keys ~qgrams:t.qgrams tr.Triple.value)

let all_ok k oks = k (List.for_all Fun.id oks)

let insert t ~origin tr ~k =
  Cps.all
    (fun (i : Store.item) ~k ->
      t.dht.Dht.insert ~origin ~key:i.Store.key ~item_id:i.Store.item_id ~payload:i.Store.payload ~k)
    (items_of_triple t tr) ~k:(all_ok k)

(* Only the base entries go: another triple may hold the same value, so
   gram entries stay behind as hints, which resolution through A#v/V
   drops once no triple holds their value. *)
let delete t ~origin tr ~k =
  let item_id = Triple.id tr in
  Cps.all (fun key ~k -> t.dht.Dht.delete ~origin ~key ~item_id ~k) (base_keys tr) ~k:(all_ok k)

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
let insert_bulk t ~origin triples ~k =
  match t.dht.Dht.bulk_insert with
  | Some bulk ->
    bulk ~origin ~items:(List.concat_map (items_of_triple t) triples) ~k:(fun r ->
        k r.Dht.complete)
  | None -> Cps.all (insert t ~origin) triples ~k:(all_ok k)

(* ------------------------------------------------------------------ *)
(* Result decoding                                                     *)

(* Every item a triple access path fetches is one triple's entry under
   an O, A#v or V key, and a reply holds at most one item per (key,
   item id): a store keeps one, the overlay dedupes what replicas return
   ([Request.dedupe_items]) and the Chord adapter drops broadcast
   replicas ({!Dht}). A triple has one key in each family, so each
   decodes once. Gram entries never come through here: they name values,
   which [gram_search] resolves to triples. *)
let decode_items items =
  List.filter_map (fun (i : Store.item) -> Triple.deserialize i.Store.payload) items

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

type oid_scan =
  origin:int ->
  pred:(Triple.t -> bool) ->
  reduce:(Triple.t list -> Triple.t list) ->
  k:(Triple.t list * Dht.result -> unit) ->
  unit

let oid_scan_reduce t : oid_scan option =
  Option.map
    (fun scan_reduce ~origin ~pred ~reduce ~k ->
      let item_pred (i : Store.item) =
        String.length i.Store.key >= 2
        && i.Store.key.[0] = 'O'
        && i.Store.key.[1] = '\000'
        &&
        match Triple.deserialize i.Store.payload with Some tr -> pred tr | None -> false
      in
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
        ~reduce:item_reduce ~k:(decoded k))
    t.dht.Dht.scan_reduce

(* ------------------------------------------------------------------ *)
(* q-gram search (shared by similarity and substring search)           *)

(* Fetch the union of items stored under [keys]: one batched
   [MultiLookup] where the substrate has the bulk path, otherwise one
   routed lookup per key. The result record carries the merged cost
   (worst hops/coverage, summed peers); items are returned separately
   and [result.items] is left empty. *)
let fetch_keys t ~origin keys ~k =
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

(* The cost of round [b] run after round [a]: chains and latencies add. *)
let sequence (a : Dht.result) (b : Dht.result) =
  {
    b with
    Dht.hops = a.Dht.hops + b.Dht.hops;
    peers_hit = a.Dht.peers_hit + b.Dht.peers_hit;
    complete = a.Dht.complete && b.Dht.complete;
    completeness = Float.min a.Dht.completeness b.Dht.completeness;
    latency = a.Dht.latency +. b.Dht.latency;
  }

module Ids = Hashtbl.Make (String)

(* Search through the q-gram index in two rounds. The first fetches the
   entries under [grams] and verifies each string they name once, at
   the origin. The second fetches the survivors' triples in one batch:
   under their A#v keys when [attr] is known, under their V keys
   otherwise. A gram entry whose value no triple holds any more (a
   delete leaves it behind) resolves to nothing. *)
let gram_search t ~origin ~attr ~grams ~verify ~k =
  fetch_keys t ~origin (List.map Keys.qgram_key grams) ~k:(fun (items, found) ->
      let seen = Ids.create 16 in
      let values =
        List.filter_map
          (fun (i : Store.item) ->
            if Ids.mem seen i.Store.item_id then None
            else begin
              Ids.add seen i.Store.item_id ();
              match Value.decode i.Store.item_id with
              | Some (Value.S s as v) when verify s -> Some v
              | _ -> None
            end)
          items
      in
      let key = match attr with Some a -> Keys.attr_value_key a | None -> Keys.value_key in
      match values with
      | [] -> k ([], found)
      | _ ->
        fetch_keys t ~origin (List.map key values) ~k:(fun (items, resolved) ->
            k (decode_items items, sequence found resolved)))

(* The flooding fallback's predicate: a string value that passes
   [verify], on [attr] when given. *)
let matching ~attr verify (tr : Triple.t) =
  (match attr with None -> true | Some a -> String.equal a tr.Triple.attr)
  && match Value.as_string tr.Triple.value with Some s -> verify s | None -> false

(* ------------------------------------------------------------------ *)
(* Similarity selection                                                *)

let qgram_applicable t ~pattern ~d = t.qgrams && Keys.edist_indexable ~pattern ~d

let similar t ~origin ~attr ~pattern ~d ~k =
  let verify s =
    Strdist.passes_count_filter ~q:Keys.q pattern s d && Strdist.within_distance pattern s d
  in
  if not (qgram_applicable t ~pattern ~d) then scan t ~origin ~pred:(matching ~attr verify) ~k
  else
    (* Look up only a count-filter-covering prefix of the pattern's
       grams (rarest first): any string within distance [d] still shares
       at least one of them, so recall is complete while the per-gram
       lookups shrink from |p|+q-1 to about d*q+1. *)
    gram_search t ~origin ~attr ~grams:(Strdist.prefix_grams ~q:Keys.q ~d pattern) ~verify ~k

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
  let verify s = contains_sub s pattern in
  if not (substring_applicable t ~pattern) then scan t ~origin ~pred:(matching ~attr verify) ~k
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
    gram_search t ~origin ~attr ~grams ~verify ~k
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
