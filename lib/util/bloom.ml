type t = { bits : Bytes.t; m : int }

let bits_per_key = 10
let hashes = 7

let create n =
  let nbytes = max 1 (((bits_per_key * max 0 n) + 7) / 8) in
  { bits = Bytes.make nbytes '\000'; m = 8 * nbytes }

(* FNV-1a over the bytes, in the native int's 63 bits, then a
   xor-shift-multiply finalizer for the second hash. That one is made
   odd, so its first step is never 0 modulo [m], a multiple of 8. *)
let hash_pair s ~off ~len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  let h1 = !h land max_int in
  let x = h1 lxor (h1 lsr 29) in
  let x = x * 0xbf58476d1ce4e5b in
  let h2 = (x lxor (x lsr 32)) land max_int lor 1 in
  (h1, h2)

let set t j =
  let b = j lsr 3 in
  Bytes.unsafe_set t.bits b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits b) lor (1 lsl (j land 7))))

let get t j = Char.code (Bytes.unsafe_get t.bits (j lsr 3)) land (1 lsl (j land 7)) <> 0

(* Enhanced double hashing (Dillinger & Manolios): position [i] is
   [h1 + i * h2 + i (i - 1) (i - 2) / 6] mod [m], stepped incrementally.
   The cubic term keeps a small filter's probe sequences from being
   arithmetic progressions that coincide for many keys. *)
let probes t s ~off ~len f =
  let h1, h2 = hash_pair s ~off ~len in
  let rec go i x y = i >= hashes || (f x && go (i + 1) ((x + y) mod t.m) ((y + i) mod t.m)) in
  go 0 (h1 mod t.m) (h2 mod t.m)

let add t s =
  ignore
    (probes t s ~off:0 ~len:(String.length s) (fun j ->
         set t j;
         true))

let mem_sub t s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Bloom.mem_sub";
  probes t s ~off ~len (get t)

let mem t s = mem_sub t s ~off:0 ~len:(String.length s)

let of_list keys =
  let keys = List.sort_uniq String.compare keys in
  let t = create (List.length keys) in
  List.iter (add t) keys;
  t

let bytes t =
  let nbytes = t.m / 8 in
  let rec varint n acc = if n < 0x80 then acc else varint (n lsr 7) (acc + 1) in
  nbytes + varint nbytes 1

let bits t = Bytes.to_string t.bits
