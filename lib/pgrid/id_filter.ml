(* A Bloom filter over one store's (key, item id) pairs: 8 bits per
   pair of capacity, 3 probes by double hashing. Its owner sizes it for
   four times the pairs it starts with, so it runs at 8-32 bits per
   live pair (1-4 B/item) and a false-positive rate of at most ~3%,
   reached just before the owner rebuilds it. *)

type t = { bits : Bytes.t; capacity : int; mutable pairs : int }

let min_ids = 32
let bits_per_id = 8

let create n =
  let capacity = 4 * max n min_ids in
  { bits = Bytes.make (capacity * bits_per_id / 8) '\000'; capacity; pairs = 0 }

let seed = 0x5bd1e995

let get f i = Char.code (Bytes.unsafe_get f.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set f i =
  let j = i lsr 3 in
  let byte = Char.code (Bytes.unsafe_get f.bits j) lor (1 lsl (i land 7)) in
  Bytes.unsafe_set f.bits j (Char.unsafe_chr byte)

(* The pair's two hashes seed the id's hash with the key's, so both
   strings count. The three probe positions are [h1], [h1 + h2],
   [h1 + 2 h2] modulo the bit count; [h2] is odd and the bit count a
   multiple of 8, so the probes are distinct. *)
let insert f ~key id =
  let m = 8 * Bytes.length f.bits in
  let hk = Hashtbl.hash key in
  let h1 = Hashtbl.seeded_hash hk id and h2 = Hashtbl.seeded_hash (hk lxor seed) id lor 1 in
  let p0 = h1 mod m and p1 = (h1 + h2) mod m and p2 = (h1 + (2 * h2)) mod m in
  if get f p0 && get f p1 && get f p2 then false
  else begin
    set f p0;
    set f p1;
    set f p2;
    f.pairs <- f.pairs + 1;
    true
  end

let mem f ~key id =
  let m = 8 * Bytes.length f.bits in
  let hk = Hashtbl.hash key in
  let h1 = Hashtbl.seeded_hash hk id and h2 = Hashtbl.seeded_hash (hk lxor seed) id lor 1 in
  get f (h1 mod m) && get f ((h1 + h2) mod m) && get f ((h1 + (2 * h2)) mod m)

let full f = f.pairs >= f.capacity

let reset f =
  Bytes.fill f.bits 0 (Bytes.length f.bits) '\000';
  f.pairs <- 0

(* Record (header + 3 fields) plus the bytes block: header word and
   data padded to a whole word with at least one terminator byte. *)
let bytes f = 32 + 8 + (8 * ((Bytes.length f.bits / 8) + 1))
