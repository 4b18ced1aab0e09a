(* A Bloom filter over one key's item ids: 8 bits per id of capacity,
   3 probes by double hashing two independent string hashes. Created
   for twice the ids it starts with, so it runs at 8-16 bits per live
   id (1-2 B/item) and a false-positive rate of at most ~3%, reached
   just before the owner rebuilds it. *)

type t = { bits : Bytes.t; capacity : int; mutable ids : int }

let min_ids = 32
let bits_per_id = 8

let create n =
  let capacity = 2 * max n min_ids in
  { bits = Bytes.make (capacity * bits_per_id / 8) '\000'; capacity; ids = 0 }

let seed = 0x5bd1e995

let get f i = Char.code (Bytes.unsafe_get f.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set f i =
  let j = i lsr 3 in
  let byte = Char.code (Bytes.unsafe_get f.bits j) lor (1 lsl (i land 7)) in
  Bytes.unsafe_set f.bits j (Char.unsafe_chr byte)

(* The three probe positions are [h1], [h1 + h2], [h1 + 2 h2] modulo
   the bit count; [h2] is odd and the bit count a multiple of 8, so the
   probes are distinct. *)
let add f id =
  let m = 8 * Bytes.length f.bits in
  let h1 = Hashtbl.hash id and h2 = Hashtbl.seeded_hash seed id lor 1 in
  set f (h1 mod m);
  set f ((h1 + h2) mod m);
  set f ((h1 + (2 * h2)) mod m);
  f.ids <- f.ids + 1

let mem f id =
  let m = 8 * Bytes.length f.bits in
  let h1 = Hashtbl.hash id and h2 = Hashtbl.seeded_hash seed id lor 1 in
  get f (h1 mod m) && get f ((h1 + h2) mod m) && get f ((h1 + (2 * h2)) mod m)

let admit filter ~walked id =
  match filter with
  | Some f when f.ids < f.capacity ->
    add f id;
    false
  | Some _ -> true
  | None -> walked >= min_ids

(* Record (header + 3 fields) plus the bytes block: header word and
   data padded to a whole word with at least one terminator byte. *)
let bytes f = 32 + 8 + (8 * ((Bytes.length f.bits / 8) + 1))
