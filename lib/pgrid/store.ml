(* The per-peer store: an ordered string map from full encoded key to a
   mutable bucket holding the (newest-first) list of items stored under
   it, and an optional journal of its writes (see store.mli for the
   ordering contract).

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

type item = { key : string; item_id : string; payload : string; version : int }

(* The answer of one data access, on every substrate: see store.mli. *)
type result = {
  items : item list;
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
  latency : float;
}

let empty_result =
  { items = []; hops = 0; peers_hit = 0; complete = true; completeness = 1.0; latency = 0.0 }

type stats = { bytes : int; triples : int }
type backend = Hash | Log of { dir : string }

let backend_label = function Hash -> "hash" | Log _ -> "log"

let item_bytes (i : item) =
  24 + String.length i.key + String.length i.item_id + String.length i.payload

module SMap = Map.Make (String)
module Tbl = Hashtbl.Make (String)

(* Never empty while bound in [map]. *)
type bucket = { mutable items : item list }

(* [gen] is the store's generation (see {!generation}); a journal's
   replay refills the same record, so it keeps rising across
   {!crash_restart}. *)
type t = {
  mutable map : bucket SMap.t;
  mutable count : int;
  mutable index : item Tbl.t Tbl.t option;
      (* key -> (item id -> item) for every key that grew past [indexed_after] items *)
  mutable gen : int;
  journal : journal option;
}

(* An append-only record file of the store's writes. Every change
   appends one binary record ('P' put / 'R' remove); {!clear} restarts
   the segment. Writes go through a buffered channel and are never
   fsynced — the simulator does not model disk latency — so the crash
   model is explicit instead: {!crash_restart} closes the channel
   (process death), {!truncate_tail} injects the torn tail (the page-
   cache suffix a real crash would lose, cut at an arbitrary byte, mid-
   record allowed), and {!replay} rebuilds the map from the surviving
   prefix. Replay stops at the first incomplete or unparseable record
   and the file is truncated there, so a torn tail costs exactly the
   records it clipped; the revived peer then lets anti-entropy/{!Repair}
   restore the delta from its replica group.

   Record wire format (big-endian):
     'P' version:8 klen:4 idlen:4 plen:4 key id payload
     'R' klen:4 idlen:4 key id
     'C'  (a clear; replay honours it, but {!clear} restarts the segment) *)
and journal = {
  path : string;
  mutable chan : out_channel;
  mutable length : int;  (* logical end of the segment, in bytes *)
}

let indexed_after = 16
let id_index t = t.index

(* ------------------------------------------------------------------ *)
(* The map and its id index                                            *)

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

let map_put t (item : item) =
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

(* Whether an entry was removed. *)
let map_remove t ~key ~item_id =
  match SMap.find_opt key t.map with
  | None -> false
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
      else b.items <- entries';
      removed > 0
    end
    else false

let map_clear t =
  t.map <- SMap.empty;
  t.count <- 0;
  t.index <- None

(* ------------------------------------------------------------------ *)
(* The journal                                                         *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let read_file path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  end
  else ""

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let add_u32 b n = Buffer.add_int32_be b (Int32.of_int n)

let encode_put (i : item) =
  let b = Buffer.create (21 + String.length i.key + String.length i.item_id + String.length i.payload) in
  Buffer.add_char b 'P';
  Buffer.add_int64_be b (Int64.of_int i.version);
  add_u32 b (String.length i.key);
  add_u32 b (String.length i.item_id);
  add_u32 b (String.length i.payload);
  Buffer.add_string b i.key;
  Buffer.add_string b i.item_id;
  Buffer.add_string b i.payload;
  Buffer.contents b

let encode_remove ~key ~item_id =
  let b = Buffer.create (9 + String.length key + String.length item_id) in
  Buffer.add_char b 'R';
  add_u32 b (String.length key);
  add_u32 b (String.length item_id);
  Buffer.add_string b key;
  Buffer.add_string b item_id;
  Buffer.contents b

let get_u32 s off = Int32.to_int (String.get_int32_be s off)

(* Replay [s] into [t]'s map, stopping at the first torn (incomplete)
   or unparseable record. Returns the byte offset of the valid prefix. *)
let replay s t =
  let n = String.length s in
  let pos = ref 0 in
  let valid = ref 0 in
  let stop = ref false in
  while (not !stop) && !pos < n do
    (match s.[!pos] with
    | 'C' ->
      map_clear t;
      pos := !pos + 1;
      valid := !pos
    | 'P' when !pos + 21 <= n ->
      let version = Int64.to_int (String.get_int64_be s (!pos + 1)) in
      let klen = get_u32 s (!pos + 9) in
      let idlen = get_u32 s (!pos + 13) in
      let plen = get_u32 s (!pos + 17) in
      if klen < 0 || idlen < 0 || plen < 0 || !pos + 21 + klen + idlen + plen > n then stop := true
      else begin
        let key = String.sub s (!pos + 21) klen in
        let item_id = String.sub s (!pos + 21 + klen) idlen in
        let payload = String.sub s (!pos + 21 + klen + idlen) plen in
        ignore (map_put t { key; item_id; payload; version });
        pos := !pos + 21 + klen + idlen + plen;
        valid := !pos
      end
    | 'R' when !pos + 9 <= n ->
      let klen = get_u32 s (!pos + 1) in
      let idlen = get_u32 s (!pos + 5) in
      if klen < 0 || idlen < 0 || !pos + 9 + klen + idlen > n then stop := true
      else begin
        let key = String.sub s (!pos + 9) klen in
        let item_id = String.sub s (!pos + 9 + klen) idlen in
        ignore (map_remove t ~key ~item_id);
        pos := !pos + 9 + klen + idlen;
        valid := !pos
      end
    | _ -> stop := true);
    ()
  done;
  !valid

(* Inject the torn tail: keep only the first [keep_bytes] bytes of the
   segment, as if everything after them never reached the disk. Only
   meaningful while the channel is closed. *)
let truncate_tail j ~keep_bytes =
  let s = read_file j.path in
  let keep = max 0 (min keep_bytes (String.length s)) in
  write_file j.path (String.sub s 0 keep);
  j.length <- keep

let open_append path =
  open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 path

let empty_segment path = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path

let append t s =
  match t.journal with
  | Some j ->
    output_string j.chan s;
    j.length <- j.length + String.length s
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The store                                                           *)

(* Distinguishes segments when several stores share a dir and the
   caller gives no [name] (tests, ad-hoc stores). Deterministic: resets
   with the process, and named stores (one per peer id) don't use it. *)
let anon_counter = ref 0

let create ?(backend = Hash) ?name () =
  let journal =
    match backend with
    | Hash -> None
    | Log { dir } ->
      let base =
        match name with
        | Some n -> n
        | None ->
          incr anon_counter;
          Printf.sprintf "store-%d" !anon_counter
      in
      mkdir_p dir;
      let path = Filename.concat dir (base ^ ".log") in
      Some { path; chan = empty_segment path; length = 0 }
  in
  { map = SMap.empty; count = 0; index = None; gen = 0; journal }

let kind t =
  match t.journal with None -> Hash | Some j -> Log { dir = Filename.dirname j.path }

let generation t = t.gen
let bump t = t.gen <- t.gen + 1

let put t i =
  bump t;
  let changed = map_put t i in
  if changed then append t (encode_put i);
  changed

let remove t ~key ~item_id =
  bump t;
  if map_remove t ~key ~item_id then append t (encode_remove ~key ~item_id)

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

let iter_clip t ~lo ~hi f =
  let below k = match hi with Some h -> String.compare k h < 0 | None -> true in
  let rec go s =
    match s () with
    | Seq.Cons ((k, b), rest) when below k ->
      List.iter f b.items;
      go rest
    | _ -> ()
  in
  go (SMap.to_seq_from lo t.map)

let to_list t = SMap.fold (fun _ b acc -> List.rev_append b.items acc) t.map [] |> List.rev

let filter_partition t pred =
  bump t;
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
  List.iter (fun (i : item) -> append t (encode_remove ~key:i.key ~item_id:i.item_id)) removed;
  removed

let digest t =
  SMap.fold
    (fun key b acc -> List.fold_left (fun acc i -> (key, i.item_id, i.version) :: acc) acc b.items)
    t.map []

(* A clear supersedes the whole history: restart the segment instead of
   appending a 'C' record to an ever-growing file. *)
let clear t =
  bump t;
  map_clear t;
  Option.iter
    (fun j ->
      close_out j.chan;
      j.chan <- empty_segment j.path;
      j.length <- 0)
    t.journal

(* Heap bytes of one immutable string: header word + data padded to a
   whole word with at least one terminator byte. *)
let string_bytes s = 8 + (8 * ((String.length s / 8) + 1))

(* Heap bytes of one hash table: its record (header + 4 fields), its
   bucket array and one 3-field cell per binding. *)
let table_bytes tbl =
  let s = Tbl.stats tbl in
  40 + 8 + (8 * s.Hashtbl.num_buckets) + (32 * s.Hashtbl.num_bindings)

(* Accounting model: one balanced-map node per distinct key (5 words)
   and its bucket (2 words), one list cell per item (3 words), plus the
   item record (header + 4 fields) and its three strings, plus the id
   index of the long keys. The map binding's key string is shared with
   the first item's [key] field often enough that we charge key strings
   on the items only. The journal's segment is {!log_bytes}, not
   memory. *)
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
            !bytes + 40 + 24 + string_bytes i.key + string_bytes i.item_id
            + string_bytes i.payload)
        b.items)
    t.map;
  { bytes = !bytes; triples = t.count }

let log_bytes t = match t.journal with Some j -> j.length | None -> 0
let sync t = Option.iter (fun j -> flush j.chan) t.journal

(* Crash + restart in one step. Without a journal the store loses
   everything (a crashed peer restarts cold). With one, the channel
   closes (flushing: torn tails are injected explicitly, so tests
   control exactly what survives), [keep_frac] tears the tail — the
   fraction of segment bytes that survived the crash, cut at an
   arbitrary byte offset — and the replay recovers every record fully
   contained in the surviving prefix, truncates the segment there and
   resumes appending. Returns the number of recovered items. *)
let crash_restart ?keep_frac t =
  bump t;
  map_clear t;
  match t.journal with
  | None -> 0
  | Some j ->
    close_out j.chan;
    Option.iter
      (fun f -> truncate_tail j ~keep_bytes:(int_of_float (f *. float_of_int j.length)))
      keep_frac;
    let s = read_file j.path in
    let valid = replay s t in
    if valid < String.length s then write_file j.path (String.sub s 0 valid);
    j.length <- valid;
    j.chan <- open_append j.path;
    t.count
