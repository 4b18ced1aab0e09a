(* The reference per-peer store: an ordered string map from full
   encoded key to the (newest-first) list of items stored under it. The
   reference backend of the differential harness (test/test_store.ml),
   and the default.

   Inserting a new id prepends it: O(1) plus the key lookup, however
   many items the key holds. Only deciding that the id is new could
   depend on the key's size. Keys of at most {!Id_filter.min_ids} items
   are walked; a hotter key carries an {!Id_filter} over its ids, whose
   "absent" is certain and whose "maybe" falls back to the exact walk.
   The filters live in a second, lazily populated map, so cold keys and
   empty stores pay nothing for them. Updating an existing id (LWW,
   stale rejection) still walks the key's list. *)

open Store_intf

module SMap = Map.Make (String)

type t = {
  mutable map : item list SMap.t;
  mutable count : int;
  mutable filters : Id_filter.t SMap.t;  (* only keys above Id_filter.min_ids items *)
}

let create () = { map = SMap.empty; count = 0; filters = SMap.empty }

(* Number of [entries] if none carries [id], [-1] if one does. *)
let rec absent_count id n = function
  | [] -> n
  | (e : item) :: rest -> if String.equal e.item_id id then -1 else absent_count id (n + 1) rest

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

let filter_of entries =
  let f = Id_filter.create (List.fold_left (fun n _ -> n + 1) 0 entries) in
  List.iter (fun (e : item) -> Id_filter.add f e.item_id) entries;
  f

let put t (item : item) =
  let existing = Option.value ~default:[] (SMap.find_opt item.key t.map) in
  let filter = SMap.find_opt item.key t.filters in
  let walked =
    match filter with
    | Some f when not (Id_filter.mem f item.item_id) -> 0
    | _ -> absent_count item.item_id 0 existing
  in
  if walked >= 0 then begin
    let entries = item :: existing in
    t.map <- SMap.add item.key entries t.map;
    t.count <- t.count + 1;
    if Id_filter.admit filter ~walked item.item_id then
      t.filters <- SMap.add item.key (filter_of entries) t.filters;
    true
  end
  else
    match replace_id item existing with
    | None -> false
    | Some entries ->
      t.map <- SMap.add item.key entries t.map;
      true

let remove t ~key ~item_id =
  match SMap.find_opt key t.map with
  | None -> ()
  | Some entries ->
    let entries' = List.filter (fun e -> not (String.equal e.item_id item_id)) entries in
    let removed = List.length entries - List.length entries' in
    t.count <- t.count - removed;
    if entries' = [] then begin
      t.map <- SMap.remove key t.map;
      t.filters <- SMap.remove key t.filters
    end
    else t.map <- SMap.add key entries' t.map

let find t key = Option.value ~default:[] (SMap.find_opt key t.map)

let range t ~lo ~hi =
  let seq = SMap.to_seq_from lo t.map in
  let rec collect acc s =
    match s () with
    | Seq.Nil -> List.rev acc
    | Seq.Cons ((k, items), rest) ->
      if String.compare k hi > 0 then List.rev acc
      else collect (List.rev_append items acc) rest
  in
  collect [] seq

let with_prefix t prefix =
  let seq = SMap.to_seq_from prefix t.map in
  let rec collect acc s =
    match s () with
    | Seq.Nil -> List.rev acc
    | Seq.Cons ((k, items), rest) ->
      if String.starts_with ~prefix k then collect (List.rev_append items acc) rest else List.rev acc
  in
  collect [] seq

let size t = t.count

let iter t f = SMap.iter (fun _ items -> List.iter f items) t.map

let to_list t =
  SMap.fold (fun _ items acc -> List.rev_append items acc) t.map [] |> List.rev

let filter_partition t pred =
  (* Removed chunks are collected per key in map (ascending) order, so
     the returned list is key-sorted like every scan. *)
  let chunks = ref [] in
  let map' =
    SMap.filter_map
      (fun _ items ->
        let keep, out = List.partition pred items in
        if out <> [] then chunks := out :: !chunks;
        match keep with [] -> None | _ -> Some keep)
      t.map
  in
  t.map <- map';
  t.filters <- SMap.filter (fun key _ -> SMap.mem key map') t.filters;
  let removed = List.concat (List.rev !chunks) in
  t.count <- t.count - List.length removed;
  removed

let digest t =
  SMap.fold
    (fun key items acc -> List.fold_left (fun acc i -> (key, i.item_id, i.version) :: acc) acc items)
    t.map []

let clear t =
  t.map <- SMap.empty;
  t.count <- 0;
  t.filters <- SMap.empty

(* Accounting model: one balanced-map node per distinct key (5 words),
   one list cell per item (3 words), plus the item record and its three
   strings. The map binding's key string is shared with the first
   item's [key] field often enough that we charge key strings on the
   items only. A hot key's filter costs its own map node and
   {!Id_filter.bytes}. *)
let stats t =
  let bytes = ref (SMap.fold (fun _ f acc -> acc + 48 + Id_filter.bytes f) t.filters 0) in
  SMap.iter
    (fun _ items ->
      bytes := !bytes + 48;
      List.iter
        (fun (i : item) ->
          bytes :=
            !bytes + item_record_bytes + 24 + string_bytes i.key + string_bytes i.item_id
            + string_bytes i.payload)
        items)
    t.map;
  { bytes = !bytes; triples = t.count }
