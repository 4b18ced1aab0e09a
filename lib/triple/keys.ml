let q = 3

(* Complete iff every string within distance [d] of [pattern] shares at
   least one q-gram with it: max(|p|,|s|) + q - 1 - d*q >= 1, and
   max >= |p|. *)
let edist_indexable ~pattern ~d = String.length pattern + q - 1 - (d * q) >= 1

(* A containing value holds every gram of a pattern at least q long. *)
let substring_indexable ~pattern = String.length pattern >= q

let oid_key oid = "O\000" ^ oid
let oid_prefix = "O\000"
let oid_region_end = "O\001"
let attr_value_key attr v = "A\000" ^ attr ^ "\000" ^ Value.encode v
let value_key v = "V\000" ^ Value.encode v
let qgram_key gram = "Q\000" ^ gram

let attr_range attr ~lo ~hi =
  ("A\000" ^ attr ^ "\000" ^ Value.encode lo, "A\000" ^ attr ^ "\000" ^ Value.encode hi)

let attr_prefix attr = "A\000" ^ attr ^ "\000"

let attr_string_prefix attr ~string_prefix = "A\000" ^ attr ^ "\000s" ^ string_prefix

