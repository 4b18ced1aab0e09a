(* The reference per-peer store: an ordered string map from full
   encoded key to a mutable bucket holding the (newest-first) list of
   items stored under it. The reference backend of the differential
   harness (test/test_store.ml), and the default.

   A put on an existing key is one map probe and an in-place prepend
   to its bucket; the map itself changes only when a key appears or
   empties. Finding the put's id among the key's items is the only step
   that could depend on the key's size. A key of at most
   [indexed_after] items is walked; a longer one carries an exact index
   from each id to its current item, kept in a side table (created with
   the store's first long key) so that a short key's bucket stays one
   field. A re-put of the stored item itself (same id, version and
   payload) changes nothing and returns [false], as a stale one does;
   replacing an existing id (LWW) walks the key's list. *)

open Store_intf

module SMap = Map.Make (String)
module Tbl = Hashtbl.Make (String)

(* Never empty while bound in [map]. *)
type bucket = { mutable items : item list }

type t = {
  mutable map : bucket SMap.t;
  mutable count : int;
  mutable index : item Tbl.t Tbl.t option;
      (* key -> (item id -> item) for every key that grew past [indexed_after] items *)
}

let indexed_after = 16

let create () = { map = SMap.empty; count = 0; index = None }

let key_index t key = match t.index with Some ix -> Tbl.find_opt ix key | None -> None

let index_key t key entries =
  let ix =
    match t.index with
    | Some ix -> ix
    | None ->
      let ix = Tbl.create 8 in
      t.index <- Some ix;
      ix
  in
  let ids = Tbl.create (2 * indexed_after) in
  List.iter (fun (e : item) -> Tbl.replace ids e.item_id e) entries;
  Tbl.replace ix key ids

let unindex_key t key = Option.iter (fun ix -> Tbl.remove ix key) t.index

let rec find_id id = function
  | [] -> None
  | (e : item) :: rest -> if String.equal e.item_id id then Some e else find_id id rest

(* [entries] with the entry carrying [item]'s id replaced in place. *)
let replace_id (item : item) entries =
  let rec go acc = function
    | [] -> entries
    | (e : item) :: rest when String.equal e.item_id item.item_id ->
      List.rev_append acc (item :: rest)
    | e :: rest -> go (e :: acc) rest
  in
  go [] entries

let put t (item : item) =
  match SMap.find_opt item.key t.map with
  | None ->
    t.map <- SMap.add item.key { items = [ item ] } t.map;
    t.count <- t.count + 1;
    true
  | Some b -> (
    let ids = key_index t item.key in
    let held =
      match ids with
      | Some ids -> Tbl.find_opt ids item.item_id
      | None -> find_id item.item_id b.items
    in
    match held with
    | None ->
      b.items <- item :: b.items;
      t.count <- t.count + 1;
      (match ids with
      | Some ids -> Tbl.add ids item.item_id item
      | None ->
        if List.compare_length_with b.items indexed_after > 0 then index_key t item.key b.items);
      true
    | Some old ->
      if item.version < old.version
         || (item.version = old.version && String.equal item.payload old.payload)
      then false
      else begin
        b.items <- replace_id item b.items;
        Option.iter (fun ids -> Tbl.replace ids item.item_id item) ids;
        true
      end)

let remove t ~key ~item_id =
  match SMap.find_opt key t.map with
  | None -> ()
  | Some b ->
    let ids = key_index t key in
    let may_hold = match ids with Some ids -> Tbl.mem ids item_id | None -> true in
    if may_hold then begin
      let entries' = List.filter (fun e -> not (String.equal e.item_id item_id)) b.items in
      let removed = List.length b.items - List.length entries' in
      t.count <- t.count - removed;
      Option.iter (fun ids -> Tbl.remove ids item_id) ids;
      if entries' = [] then begin
        t.map <- SMap.remove key t.map;
        unindex_key t key
      end
      else b.items <- entries'
    end

let find t key = match SMap.find_opt key t.map with Some b -> b.items | None -> []

let range t ~lo ~hi =
  let seq = SMap.to_seq_from lo t.map in
  let rec collect acc s =
    match s () with
    | Seq.Nil -> List.rev acc
    | Seq.Cons ((k, b), rest) ->
      if String.compare k hi > 0 then List.rev acc
      else collect (List.rev_append b.items acc) rest
  in
  collect [] seq

let with_prefix t prefix =
  let seq = SMap.to_seq_from prefix t.map in
  let rec collect acc s =
    match s () with
    | Seq.Nil -> List.rev acc
    | Seq.Cons ((k, b), rest) ->
      if String.starts_with ~prefix k then collect (List.rev_append b.items acc) rest
      else List.rev acc
  in
  collect [] seq

let size t = t.count

let iter t f = SMap.iter (fun _ b -> List.iter f b.items) t.map

let to_list t = SMap.fold (fun _ b acc -> List.rev_append b.items acc) t.map [] |> List.rev

let filter_partition t pred =
  (* Removed chunks are collected per key in map (ascending) order, so
     the returned list is key-sorted like every scan. *)
  let chunks = ref [] in
  t.map <-
    SMap.filter_map
      (fun key b ->
        let keep, out = List.partition pred b.items in
        if out <> [] then begin
          chunks := out :: !chunks;
          match key_index t key with
          | Some ids when keep <> [] -> List.iter (fun (i : item) -> Tbl.remove ids i.item_id) out
          | Some _ -> unindex_key t key
          | None -> ()
        end;
        match keep with
        | [] -> None
        | _ ->
          b.items <- keep;
          Some b)
      t.map;
  let removed = List.concat (List.rev !chunks) in
  t.count <- t.count - List.length removed;
  removed

let digest t =
  SMap.fold
    (fun key b acc -> List.fold_left (fun acc i -> (key, i.item_id, i.version) :: acc) acc b.items)
    t.map []

let clear t =
  t.map <- SMap.empty;
  t.count <- 0;
  t.index <- None

(* Heap bytes of one hash table: its record (header + 4 fields), its
   bucket array and one 3-field cell per binding. *)
let table_bytes tbl =
  let s = Tbl.stats tbl in
  40 + 8 + (8 * s.Hashtbl.num_buckets) + (32 * s.Hashtbl.num_bindings)

(* Accounting model: one balanced-map node per distinct key (5 words)
   and its bucket (2 words), one list cell per item (3 words), plus the
   item record and its three strings, plus the id index of the long
   keys. The map binding's key string is shared with the first item's
   [key] field often enough that we charge key strings on the items
   only. *)
let stats t =
  let bytes =
    ref
      (match t.index with
      | Some ix -> Tbl.fold (fun _ ids acc -> acc + table_bytes ids) ix (table_bytes ix)
      | None -> 0)
  in
  SMap.iter
    (fun _ b ->
      bytes := !bytes + 48 + 16;
      List.iter
        (fun (i : item) ->
          bytes :=
            !bytes + item_record_bytes + 24 + string_bytes i.key + string_bytes i.item_id
            + string_bytes i.payload)
        b.items)
    t.map;
  { bytes = !bytes; triples = t.count }
