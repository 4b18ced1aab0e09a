(* The reference per-peer store: an ordered string map from full
   encoded key to a mutable bucket holding the (newest-first) list of
   items stored under it. The reference backend of the differential
   harness (test/test_store.ml), and the default.

   A put on an existing key is one map probe and an in-place prepend
   to its bucket; the map itself changes only when a key appears or
   empties. Deciding that the id is new is the only step that could
   depend on the key's size. A store of more than {!Id_filter.min_ids}
   items carries one {!Id_filter} over its (key, id) pairs, created
   lazily, rebuilt from the store when it fills and reset by [clear].
   Its "absent" is certain; its "maybe", and every put into a store too
   small for a filter, walks the key's list. Updating an existing id
   (LWW, stale rejection) walks the key's list too. *)

open Store_intf

module SMap = Map.Make (String)

(* Never empty while bound in [map]. *)
type bucket = { mutable items : item list }

type t = {
  mutable map : bucket SMap.t;
  mutable count : int;
  mutable filter : Id_filter.t option;  (* once [count] exceeded Id_filter.min_ids *)
}

let create () = { map = SMap.empty; count = 0; filter = None }

let rec absent id = function
  | [] -> true
  | (e : item) :: rest -> (not (String.equal e.item_id id)) && absent id rest

(* [entries] with the entry carrying [item]'s id replaced in place, or
   [None] if that entry holds a strictly newer version (stale update). *)
let replace_id (item : item) entries =
  let rec go acc = function
    | [] -> Some entries
    | (e : item) :: rest when String.equal e.item_id item.item_id ->
      if item.version >= e.version then Some (List.rev_append acc (item :: rest)) else None
    | e :: rest -> go (e :: acc) rest
  in
  go [] entries

let build_filter t =
  let f = Id_filter.create t.count in
  SMap.iter
    (fun key b -> List.iter (fun (e : item) -> ignore (Id_filter.insert f ~key e.item_id)) b.items)
    t.map;
  t.filter <- Some f

(* Account for one new item already linked into its bucket. [fresh]:
   the filter, if any, took the item's pair as certainly new. *)
let grew t ~fresh =
  t.count <- t.count + 1;
  match t.filter with
  | None -> if t.count > Id_filter.min_ids then build_filter t
  | Some f -> if fresh && Id_filter.full f then build_filter t

let put t (item : item) =
  let fresh =
    match t.filter with Some f -> Id_filter.insert f ~key:item.key item.item_id | None -> false
  in
  match SMap.find_opt item.key t.map with
  | None ->
    t.map <- SMap.add item.key { items = [ item ] } t.map;
    grew t ~fresh;
    true
  | Some b ->
    if fresh || absent item.item_id b.items then begin
      b.items <- item :: b.items;
      grew t ~fresh;
      true
    end
    else (
      match replace_id item b.items with
      | None -> false
      | Some entries ->
        b.items <- entries;
        true)

let remove t ~key ~item_id =
  match SMap.find_opt key t.map with
  | None -> ()
  | Some b ->
    let entries' = List.filter (fun e -> not (String.equal e.item_id item_id)) b.items in
    let removed = List.length b.items - List.length entries' in
    t.count <- t.count - removed;
    if entries' = [] then t.map <- SMap.remove key t.map else b.items <- entries'

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

(* The filter keeps the removed pairs' bits: they can only cause false
   positives. *)
let filter_partition t pred =
  (* Removed chunks are collected per key in map (ascending) order, so
     the returned list is key-sorted like every scan. *)
  let chunks = ref [] in
  t.map <-
    SMap.filter_map
      (fun _ b ->
        let keep, out = List.partition pred b.items in
        if out <> [] then chunks := out :: !chunks;
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
  Option.iter Id_filter.reset t.filter

(* Accounting model: one balanced-map node per distinct key (5 words)
   and its bucket (2 words), one list cell per item (3 words), plus the
   item record and its three strings, plus the store's filter. The map
   binding's key string is shared with the first item's [key] field
   often enough that we charge key strings on the items only. *)
let stats t =
  let bytes = ref (match t.filter with Some f -> Id_filter.bytes f | None -> 0) in
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
