(* The length of [n]'s LEB128 varint. *)
let rec varint_bytes n = if n >= 0 && n < 128 then 1 else 1 + varint_bytes (n lsr 7)

external get64 : string -> int -> int64 = "%caml_string_get64"

(* The length of the prefix [a] and [b] share, counting from [i < n]:
   eight bytes a step, then one. *)
let rec shared a b n i =
  if i + 8 <= n && (get64 a i : int64) = get64 b i then shared a b n (i + 8)
  else if i < n && String.unsafe_get a i = String.unsafe_get b i then shared a b n (i + 1)
  else i

(* A hash for the table below: the length and three 8-byte words
   (first, middle, last), or every byte of a short string. Strings that
   collide cost an extra comparison, never a wrong size. *)
let rec short_hash s i h =
  if i < String.length s then short_hash s (i + 1) ((h * 31) + Char.code (String.unsafe_get s i))
  else h

let word s i = Int64.to_int (get64 s i)

let hash s =
  let len = String.length s in
  if len < 8 then short_hash s 0 len
  else
    ((((word s 0 * 0x9E3779B1) + word s ((len - 8) / 2)) * 0x85EBCA6B) + word s (len - 8))
    * 0xC2B2AE35
    + len

(* The fields seen so far in the list being sized: an open-addressing
   table from string to the number of its latest field. Slot [i]'s
   stamp and field number sit side by side in [meta] ([2i], [2i+1]); a
   slot is live only while its stamp equals [stamp], so starting a list
   is one increment, not a clear. One table serves every call: sizing
   runs on the simulator's single thread and never re-enters itself. *)
type table = {
  mutable keys : string array;
  mutable meta : int array;
  mutable stamp : int;
  mutable live : int;
}

let create cap = { keys = Array.make cap ""; meta = Array.make (2 * cap) 0; stamp = 0; live = 0 }
let tbl = create 256

(* The slot holding [s], or the empty slot where it would go. The home
   slot takes high bits of the hash times an odd constant, which depend
   on all of its bits. *)
let rec probe t s mask i =
  if t.meta.(2 * i) <> t.stamp || String.equal t.keys.(i) s then i
  else probe t s mask ((i + 1) land mask)

let slot t s =
  let mask = Array.length t.keys - 1 in
  probe t s mask (((hash s * 0x1DADEF4BC2DD44D) lsr 32) land mask)

let grow t =
  let keys = t.keys and meta = t.meta in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap "";
  t.meta <- Array.make (2 * cap) 0;
  Array.iteri
    (fun i s ->
      if meta.(2 * i) = t.stamp then begin
        let j = slot t s in
        t.keys.(j) <- s;
        t.meta.(2 * j) <- t.stamp;
        t.meta.((2 * j) + 1) <- meta.((2 * i) + 1)
      end)
    keys

(* Bytes of field number [n] holding [s]; records it as [s]'s latest.
   The empty string costs one byte either way, so it skips the table. *)
let field t n s =
  let len = String.length s in
  if len = 0 then 1
  else begin
    let literal = (if len < 64 then 1 else varint_bytes (2 * len)) + len in
    let i = slot t s in
    if t.meta.(2 * i) = t.stamp then begin
      let back = varint_bytes ((2 * (n - 1 - t.meta.((2 * i) + 1))) + 1) in
      t.meta.((2 * i) + 1) <- n;
      Int.min back literal
    end
    else begin
      t.keys.(i) <- s;
      t.meta.(2 * i) <- t.stamp;
      t.meta.((2 * i) + 1) <- n;
      t.live <- t.live + 1;
      if 2 * t.live > Array.length t.keys then grow t;
      literal
    end
  end

let rec sum t prev n acc = function
  | [] -> acc
  | (i : Store.item) :: rest ->
    let len = String.length i.key in
    let common = shared prev i.key (Int.min (String.length prev) len) 0 in
    let suffix = len - common in
    let key =
      (if common < 128 then 1 else varint_bytes common)
      + (if suffix < 128 then 1 else varint_bytes suffix)
      + suffix
    in
    let id = field t n i.item_id in
    let payload = field t (n + 1) i.payload in
    sum t i.key (n + 2) (acc + key + id + payload + varint_bytes i.version) rest

(* Starts a list or batch: no field seen yet. *)
let start t =
  t.stamp <- t.stamp + 1;
  t.live <- 0

let items_bytes ?(prev = "") items =
  start tbl;
  sum tbl prev 0 0 items

let rows_bytes ~encode names iter rows =
  start tbl;
  let cap = Array.length tbl.keys in
  let arity = List.length names in
  let n = ref 0 in
  let bytes = ref (varint_bytes arity + varint_bytes (List.length rows)) in
  let put s =
    bytes := !bytes + field tbl !n s;
    incr n
  in
  List.iter put names;
  let value v = put (encode v) in
  List.iter
    (fun row ->
      let first = !n in
      iter value row;
      if !n - first <> arity then
        invalid_arg "Wire.rows_bytes: a row has more or fewer values than names")
    rows;
  (* Let the batch's strings go, which the table would keep alive until
     a later list reuses their slots; a batch larger than the item lists
     the table has grown for gives it back its size from before. *)
  if Array.length tbl.keys > cap then begin
    let fresh = create cap in
    tbl.keys <- fresh.keys;
    tbl.meta <- fresh.meta
  end
  else Array.fill tbl.keys 0 cap "";
  !bytes
