module Store = Unistore_pgrid.Store
module Sim = Unistore_sim.Sim
module Cps = Unistore_util.Cps

let depth = 6

let hex_digits = "0123456789abcdef"

let hex_of_key key =
  (* First [depth] hex digits (4 bits per digit) of the encoded key,
     zero-padded: preserves byte-string order on the prefix. *)
  let buf = Buffer.create depth in
  let n = String.length key in
  for d = 0 to depth - 1 do
    let byte = d / 2 in
    let v = if byte < n then Char.code key.[byte] else 0 in
    let nibble = if d mod 2 = 0 then v lsr 4 else v land 0xF in
    Buffer.add_char buf hex_digits.[nibble]
  done;
  Buffer.contents buf

(* Bucket payloads embed the original key so that range filtering stays
   exact after the placement hash destroyed key order. *)
let encode_payload ~key ~payload = Printf.sprintf "%d:%s%s" (String.length key) key payload

let decode_payload s =
  match String.index_opt s ':' with
  | None -> None
  | Some i ->
    let len = int_of_string_opt (String.sub s 0 i) in
    (match len with
    | Some len when String.length s >= i + 1 + len ->
      let key = String.sub s (i + 1) len in
      let payload = String.sub s (i + 1 + len) (String.length s - i - 1 - len) in
      Some (key, payload)
    | _ -> None)

(* A bucket item as stored: its id wrapped as [item_id ^ "#" ^ key] (so
   items that share an id under different keys of one bucket stay
   distinct) and its payload as [encode_payload]. Unwrapping strips the
   known suffix, since the id itself may hold a '#'. *)
let wrap_id ~key item_id = item_id ^ "#" ^ key

let wrap_item (i : Store.item) =
  {
    Store.key = "B:" ^ hex_of_key i.Store.key;
    item_id = wrap_id ~key:i.Store.key i.Store.item_id;
    payload = encode_payload ~key:i.Store.key ~payload:i.Store.payload;
    version = i.Store.version;
  }

let unwrap_item (i : Store.item) =
  match decode_payload i.Store.payload with
  | Some (key, payload) ->
    let suffix = "#" ^ key in
    let item_id =
      if String.ends_with ~suffix i.Store.item_id then
        String.sub i.Store.item_id 0 (String.length i.Store.item_id - String.length suffix)
      else i.Store.item_id
    in
    Some { Store.key; item_id; payload; version = i.Store.version }
  | None -> None

(* The trie markers that lead to [key]'s bucket: the level-l node
   learns it has child hex.[l]. *)
let markers key =
  let hex = hex_of_key key in
  List.init depth (fun l ->
      { Store.key = "T:" ^ String.sub hex 0 l; item_id = String.make 1 hex.[l]; payload = ""; version = 0 })

let bulk_insert chord ~origin ~items ~k =
  (* The batch's distinct trie markers, sorted (root first for a single
     item), then each item's leaf bucket entry, all in one round. *)
  let put (i : Store.item) ~k =
    Chord.put chord ~origin ~key:i.key ~item_id:i.item_id ~payload:i.payload ~version:i.version ~k ()
  in
  let trie =
    List.sort_uniq compare (List.concat_map (fun (i : Store.item) -> markers i.Store.key) items)
  in
  let started = Sim.now (Chord.sim chord) in
  Cps.all put (trie @ List.map wrap_item items) ~k:(fun rs ->
      k (Store.side_by_side ~latency:(Sim.now (Chord.sim chord) -. started) rs))

let insert chord ~origin ~key ~item_id ~payload ?(version = 0) ~k () =
  bulk_insert chord ~origin ~items:[ { Store.key; item_id; payload; version } ]
    ~k:(fun (r : Chord.result) -> k r.Chord.complete)

let range chord ~origin ~lo ~hi ~k =
  (* A bucket prefix strictly below hex(lo) only holds keys < lo, and one
     strictly above hex(hi) only keys > hi (byte-string order is decided
     within the prefix); the boundary buckets filter exactly. *)
  let hex_lo = hex_of_key lo in
  let hex_hi = hex_of_key hi in
  let started = Sim.now (Chord.sim chord) in
  let outstanding = ref 0 in
  let items = ref [] in
  let hops = ref 0 in
  let gets = ref 0 in
  let complete = ref true in
  let finished = ref false in
  let check_done () =
    if !outstanding = 0 && not !finished then begin
      finished := true;
      k
        {
          Chord.items = !items;
          hops = !hops;
          peers_hit = !gets;
          complete = !complete;
          completeness = (if !complete then 1.0 else 0.0);
          latency = Sim.now (Chord.sim chord) -. started;
        }
    end
  in
  let intersects prefix =
    let l = String.length prefix in
    let pmin = prefix ^ String.make (depth - l) '0' in
    let pmax = prefix ^ String.make (depth - l) 'f' in
    String.compare pmax hex_lo >= 0 && String.compare pmin hex_hi <= 0
  in
  let rec visit prefix =
    incr outstanding;
    incr gets;
    if String.length prefix = depth then
      Chord.get chord ~origin ~key:("B:" ^ prefix) ~k:(fun r ->
          if not r.Chord.complete then complete := false;
          hops := max !hops r.Chord.hops;
          List.iter
            (fun raw ->
              match unwrap_item raw with
              | Some i when String.compare i.Store.key lo >= 0 && String.compare i.Store.key hi <= 0
                ->
                items := i :: !items
              | _ -> ())
            r.Chord.items;
          decr outstanding;
          check_done ())
    else
      Chord.get chord ~origin ~key:("T:" ^ prefix) ~k:(fun r ->
          if not r.Chord.complete then complete := false;
          hops := max !hops r.Chord.hops;
          List.iter
            (fun (i : Store.item) ->
              let child = prefix ^ i.Store.item_id in
              if intersects child then visit child)
            r.Chord.items;
          decr outstanding;
          check_done ())
  in
  visit "";
  (* [visit] is fully asynchronous; nothing to do here. *)
  ()
