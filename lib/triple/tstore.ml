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
(* Index entries                                                       *)

(* A base entry holds only what its key does not name (DESIGN.md, "What
   an index entry holds"). All three entries of a triple once shared
   the id [oid|attr|hash], [hash] the digest below, and
   [Request.dedupe_items] orders a reply by (key, id); so under each key
   the new ids must sort as those old ids did, which keeps rows and row
   order. Under [O\000oid] the id is the old one minus the [oid|] that
   every id of the key starts with. Under [A\000attr\000v] and
   [V\000v] it is the old id minus a tail the key fixes ([|attr|hash]
   and [|hash]): see [cut]. *)

let digest v = Printf.sprintf "%08x" (Hashtbl.hash (Value.encode v))

(* The id of a triple's entry under its O key, [h] its value's digest. *)
let oid_entry_id attr h = attr ^ "|" ^ h

(* Whether [String.sub z i _ ^ "|" ^ tail] sorts after [tail]. It is the
   longer of the two, so it never equals [tail]. *)
let rest_after z i tail =
  let n = String.length z - i in
  let at j = if j < n then z.[i + j] else if j = n then '|' else tail.[j - n - 1] in
  let rec go j =
    j >= String.length tail
    || match Char.compare (at j) tail.[j] with 0 -> go (j + 1) | c -> c > 0
  in
  go 0

(* [cut ~tail z] is an id for [z] that sorts, among the ids of one key
   (which fixes [tail]), as [z ^ "|" ^ tail] does. It is [z ^ "|"] when
   [z] holds no '|' or '{'. Dropping the tail is only unsafe where one
   [z] ends at a '|' of another: there the old order is that of [tail]
   against what follows the '|'. So a '|' of [z] stays '|' when what
   follows it sorts after [tail] and becomes ["{\002"] when it sorts
   before, a '{' becomes ["{\001"], and the final '|' sorts between
   the two kinds of '|' as the end of [z] does. *)
let cut ~tail z =
  if not (String.contains z '|' || String.contains z '{') then z ^ "|"
  else begin
    let b = Buffer.create (String.length z + 4) in
    String.iteri
      (fun i c ->
        match c with
        | '{' -> Buffer.add_string b "{\001"
        | '|' -> Buffer.add_string b (if rest_after z (i + 1) tail then "|" else "{\002")
        | c -> Buffer.add_char b c)
      z;
    Buffer.add_char b '|';
    Buffer.contents b
  end

(* The [z] of [cut ~tail z], whatever the tail; [""] if [id] is no
   such id (no [z] is empty). *)
let uncut id =
  let n = String.length id - 1 in
  if n < 1 || id.[n] <> '|' then ""
  else if not (String.contains id '{') then String.sub id 0 n
  else begin
    let b = Buffer.create n in
    let rec go i =
      if i = n then Buffer.contents b
      else
        match id.[i] with
        | '{' when i + 1 < n && id.[i + 1] = '\001' -> Buffer.add_char b '{'; go (i + 2)
        | '{' when i + 1 < n && id.[i + 1] = '\002' -> Buffer.add_char b '|'; go (i + 2)
        | '{' -> ""
        | c -> Buffer.add_char b c; go (i + 1)
    in
    go 0
  end

let entry key item_id payload = { Store.key; item_id; payload; version = 0 }

(* A triple's O, A#v and V entries, [encoded] its value's encoding. A V
   entry's payload is empty unless the OID holds a '|', which leaves the
   OID/attribute split of its id to the OID's length. *)
let base_items ~encoded ({ Triple.oid; attr; value } : Triple.t) =
  let h = digest value in
  [
    entry (Keys.oid_key oid) (oid_entry_id attr h) encoded;
    entry (Keys.attr_value_key attr value) (cut ~tail:(attr ^ "|" ^ h) oid) "";
    entry (Keys.value_key value) (cut ~tail:h (oid ^ "|" ^ attr))
      (if String.contains oid '|' then string_of_int (String.length oid) else "");
  ]

(* The base entries, then one entry per distinct q-gram of a string
   value naming the value (id [Value.encode v], empty payload), so a
   peer keeps one gram entry per distinct string however many triples
   hold it. One encoded string serves the O payload and the gram ids. *)
let items_of_triple ~qgrams (tr : Triple.t) =
  let encoded = Value.encode tr.Triple.value in
  let grams =
    match Value.as_string tr.Triple.value with
    | Some s when qgrams -> Strdist.distinct_qgrams ~q:Keys.q s
    | _ -> []
  in
  base_items ~encoded tr @ List.map (fun g -> entry (Keys.qgram_key g) encoded "") grams

let index_keys ~qgrams tr = List.map (fun (i : Store.item) -> i.Store.key) (items_of_triple ~qgrams tr)

(* The index family of an entry: its key's tag byte. *)
let family (i : Store.item) =
  if String.length i.Store.key >= 2 && i.Store.key.[1] = '\000' then i.Store.key.[0] else ' '

(* The first [c] in [s] at or after [i]; -1 if none. *)
let rec index_from s i c =
  if i >= String.length s then -1 else if s.[i] = c then i else index_from s (i + 1) c

let decode_entry (i : Store.item) =
  let key = i.Store.key and id = i.Store.item_id in
  let triple oid attr = function Some value -> Some { Triple.oid; attr; value } | None -> None in
  match family i with
  | 'O' ->
    let n = String.length id - 9 in
    if n < 1 || id.[n] <> '|' || String.length key < 3 then None
    else
      triple (String.sub key 2 (String.length key - 2)) (String.sub id 0 n)
        (Value.decode i.Store.payload)
  | 'A' ->
    let sep = index_from key 2 '\000' and oid = uncut id in
    if sep <= 2 || oid = "" then None
    else
      triple oid (String.sub key 2 (sep - 2))
        (Value.decode_at key ~off:(sep + 1) ~len:(String.length key - sep - 1))
  | 'V' ->
    (* [z] is [oid|attr]; the OID ends at its first '|' unless the
       payload gives its length. *)
    let z = uncut id in
    let n =
      if i.Store.payload = "" then index_from z 0 '|'
      else
        match int_of_string_opt i.Store.payload with
        | Some n when n < String.length z && z.[n] = '|' -> n
        | _ -> -1
    in
    if n <= 0 || n >= String.length z - 1 then None
    else
      triple (String.sub z 0 n)
        (String.sub z (n + 1) (String.length z - n - 1))
        (Value.decode_at key ~off:2 ~len:(String.length key - 2))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)

let all_ok k oks = k (List.for_all Fun.id oks)

let insert t ~origin tr ~k =
  Cps.all
    (fun (i : Store.item) ~k ->
      t.dht.Dht.insert ~origin ~key:i.Store.key ~item_id:i.Store.item_id ~payload:i.Store.payload ~k)
    (items_of_triple ~qgrams:t.qgrams tr) ~k:(all_ok k)

(* Only the base entries go: another triple may hold the same value, so
   gram entries stay behind as hints, which resolution through A#v/V
   drops once no triple holds their value. *)
let delete t ~origin tr ~k =
  Cps.all
    (fun (i : Store.item) ~k ->
      t.dht.Dht.delete ~origin ~key:i.Store.key ~item_id:i.Store.item_id ~k)
    (base_items ~encoded:(Value.encode tr.Triple.value) tr)
    ~k:(all_ok k)

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
   them as one batch. *)
let insert_bulk t ~origin triples ~k =
  t.dht.Dht.bulk_insert ~origin ~items:(List.concat_map (items_of_triple ~qgrams:t.qgrams) triples)
    ~k:(fun r -> k r.Dht.complete)

(* ------------------------------------------------------------------ *)
(* Result decoding                                                     *)

(* Every item a triple access path fetches is one triple's entry under
   an O, A#v or V key, and a reply holds at most one item per (key,
   item id): a store keeps one, the overlay dedupes what replicas return
   ([Request.dedupe_items]) and the Chord adapter drops broadcast
   replicas ({!Dht}). A triple has one key in each family, so each
   decodes once. Gram entries never come through here: they name values,
   which [gram_search] resolves to triples. *)
let decode_items items = List.filter_map decode_entry items

let decoded k (r : Dht.result) = k (decode_items r.Dht.items, r)

(* ------------------------------------------------------------------ *)
(* Semi-join filters                                                   *)

type slot = Subject | Object

(* The filter holds OIDs ([Subject]) or value encodings ([Object]). A
   leaf reads an A#v entry's OID from its id, whole unless the id holds
   an escape, and its value's encoding from the key's tail, decoding
   neither. Float values always pass: [Value.equal] joins 0.0 with -0.0
   and every NaN with every other, whose encodings differ, so the
   filter holds no floats. Entries of other families pass too. *)
let semijoin slot values =
  let keys =
    List.filter_map
      (fun v ->
        match (slot, v) with
        | Subject, Value.S oid -> Some oid
        | Subject, _ | Object, Value.F _ -> None
        | Object, v -> Some (Value.encode v))
      values
  in
  let bloom = Unistore_util.Bloom.of_list keys in
  let admits (i : Store.item) =
    family i <> 'A'
    ||
    match slot with
    | Subject ->
      (* [uncut id] without the copy when [id] holds no escape; a
         malformed id, which decodes to nothing, passes no filter. *)
      let id = i.Store.item_id in
      let n = String.length id - 1 in
      if String.contains id '{' then Unistore_util.Bloom.mem bloom (uncut id)
      else n >= 1 && id.[n] = '|' && Unistore_util.Bloom.mem_sub bloom id ~off:0 ~len:n
    | Object ->
      let key = i.Store.key in
      let off = index_from key 2 '\000' + 1 in
      off = 0
      || off >= String.length key
      || key.[off] = 'f'
      || Unistore_util.Bloom.mem_sub bloom key ~off ~len:(String.length key - off)
  in
  { Dht.bloom; admits }

(* ------------------------------------------------------------------ *)
(* Access paths                                                        *)

let by_oid t ~origin oid ~k = t.dht.Dht.lookup ~origin ~key:(Keys.oid_key oid) ~k:(decoded k)

let by_attr_value t ~origin ~attr v ~k =
  t.dht.Dht.lookup ~origin ~key:(Keys.attr_value_key attr v) ~k:(decoded k)

let by_attr_range ?filter t ~origin ~attr ~lo ~hi ~k =
  let lo, hi = Keys.attr_range attr ~lo ~hi in
  t.dht.Dht.filtered_range ~origin ~filter ~lo ~hi ~k:(decoded k)

let by_attr_all ?filter t ~origin ~attr ~k =
  t.dht.Dht.prefix ~origin ~filter ~prefix:(Keys.attr_prefix attr) ~k:(decoded k)

let by_attr_string_prefix ?filter t ~origin ~attr ~string_prefix ~k =
  t.dht.Dht.prefix ~origin ~filter ~prefix:(Keys.attr_string_prefix attr ~string_prefix)
    ~k:(decoded k)

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
  let item_pred i =
    family i = 'A' && match decode_entry i with Some tr -> pred tr | None -> false
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
      let item_pred i =
        family i = 'O' && match decode_entry i with Some tr -> pred tr | None -> false
      in
      (* Lift the triple-level reduction to items: decode, reduce, keep
         exactly the items whose triples survived (reduce only drops, and
         each triple came from one item, so its O entry's (key, id) is a
         faithful back-mapping). *)
      let item_reduce items =
        let decoded =
          List.filter_map
            (fun i -> match decode_entry i with Some tr -> Some (i, tr) | None -> None)
            items
        in
        let survivors = reduce (List.map snd decoded) in
        let keep = Hashtbl.create (max 1 (List.length survivors)) in
        List.iter
          (fun (tr : Triple.t) ->
            Hashtbl.replace keep (tr.Triple.oid, oid_entry_id tr.Triple.attr (digest tr.Triple.value)) ())
          survivors;
        List.filter_map
          (fun ((i : Store.item), (tr : Triple.t)) ->
            if Hashtbl.mem keep (tr.Triple.oid, i.Store.item_id) then Some i else None)
          decoded
      in
      scan_reduce ~origin ~lo:Keys.oid_prefix ~hi:Keys.oid_region_end ~pred:item_pred
        ~reduce:item_reduce ~k:(decoded k))
    t.dht.Dht.scan_reduce

(* ------------------------------------------------------------------ *)
(* q-gram search (shared by similarity and substring search)           *)

(* Fetch the union of items stored under [keys] with one batched
   lookup. The result record carries the merged cost; items are returned
   separately and [result.items] is empty. *)
let fetch_keys t ~origin keys ~k =
  t.dht.Dht.multi_lookup ~origin ~keys ~k:(fun (found, r) -> k (List.concat_map snd found, r))

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

let substring_applicable t ~pattern = t.qgrams && Keys.substring_indexable ~pattern

let containing t ~origin ~attr ~pattern ~k =
  let verify s = Strdist.contains_sub s pattern in
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
