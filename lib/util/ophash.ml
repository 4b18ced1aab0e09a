let routing_bits = 256

let encode_string s = s

(* Offset binary: xor the sign bit so negative ints sort first. *)
let write_int b off i = Bytes.set_int64_be b off (Int64.logxor (Int64.of_int i) Int64.min_int)

let eight write x =
  let b = Bytes.create 8 in
  write b 0 x;
  Bytes.unsafe_to_string b

let encode_int i = eight write_int i

let decode_int_at s off = Int64.to_int (Int64.logxor (String.get_int64_be s off) Int64.min_int)

let float_bits_sortable f =
  let bits = Int64.bits_of_float f in
  if Int64.compare bits 0L < 0 then Int64.lognot bits
  else Int64.logor bits Int64.min_int

let float_bits_unsortable x =
  if Int64.compare x 0L < 0 then Int64.logand x Int64.max_int |> fun b -> Int64.float_of_bits b
  else Int64.float_of_bits (Int64.lognot x)

let write_float b off f = Bytes.set_int64_be b off (float_bits_sortable f)
let encode_float f = eight write_float f

let decode_float_at s off = float_bits_unsortable (String.get_int64_be s off)

let to_bitkey enc = Bitkey.of_bytes_prefix enc ~width:routing_bits

let bitkey_of_string s = to_bitkey (encode_string s)

let range_region ~lo ~hi =
  let lo_k = to_bitkey lo in
  (* Truncating [hi] can only shrink it, so pad the truncation with ones to
     cover every key whose encoding extends the truncated prefix. *)
  let hi_trunc = Bitkey.of_bytes_prefix hi ~width:routing_bits in
  let hi_k =
    if String.length hi * 8 > routing_bits then Bitkey.pad hi_trunc ~width:routing_bits true
    else hi_trunc
  in
  (lo_k, hi_k)

let prefix_region p =
  let bits = String.length p * 8 in
  if bits >= routing_bits then
    let k = Bitkey.of_bytes_prefix p ~width:routing_bits in
    (k, Bitkey.pad k ~width:routing_bits true)
  else
    let k = Bitkey.of_bytes_prefix p ~width:bits in
    (Bitkey.pad k ~width:routing_bits false, Bitkey.pad k ~width:routing_bits true)
