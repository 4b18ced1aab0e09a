module Ophash = Unistore_util.Ophash

type t = S of string | I of int | F of float | B of bool

let type_rank = function B _ -> 0 | F _ -> 1 | I _ -> 2 | S _ -> 3

let compare a b =
  match (a, b) with
  | S x, S y -> String.compare x y
  | I x, I y -> Int.compare x y
  | F x, F y -> Float.compare x y
  | B x, B y -> Bool.compare x y
  | _ -> Int.compare (type_rank a) (type_rank b)

let equal a b = compare a b = 0

(* Equal values hash alike: [Float.hash] maps -0.0 and 0.0, and every
   NaN, together, as [Float.compare] does. *)
let hash = function
  | S s -> String.hash s
  | I i -> Int.hash i
  | F f -> Float.hash f
  | B b -> Bool.to_int b

let pp fmt = function
  | S s -> Format.fprintf fmt "%S" s
  | I i -> Format.fprintf fmt "%d" i
  | F f -> Format.fprintf fmt "%g" f
  | B b -> Format.fprintf fmt "%b" b

let to_display = function
  | S s -> s
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%g" f
  | B b -> string_of_bool b

(* Type tags chosen so that byte order of tags equals [type_rank] order. *)
let tag = function B _ -> 'b' | F _ -> 'f' | I _ -> 'i' | S _ -> 's'

(* [String.length (encode v)], without encoding. *)
let encoded_length = function S s -> 1 + String.length s | I _ | F _ -> 9 | B _ -> 2

(* The tag and the body are written into one string, not concatenated. *)
let encode v =
  let b = Bytes.create (encoded_length v) in
  Bytes.set b 0 (tag v);
  (match v with
  | S s -> Bytes.blit_string (Ophash.encode_string s) 0 b 1 (String.length s)
  | I i -> Ophash.write_int b 1 i
  | F f -> Ophash.write_float b 1 f
  | B x -> Bytes.set b 1 (if x then '\001' else '\000'));
  Bytes.unsafe_to_string b

let decode_at s ~off ~len =
  if len < 1 then None
  else
    match s.[off] with
    | 's' -> Some (S (String.sub s (off + 1) (len - 1)))
    | 'i' -> if len = 9 then Some (I (Ophash.decode_int_at s (off + 1))) else None
    | 'f' -> if len = 9 then Some (F (Ophash.decode_float_at s (off + 1))) else None
    | 'b' when len = 2 -> (
      match s.[off + 1] with '\000' -> Some (B false) | '\001' -> Some (B true) | _ -> None)
    | _ -> None

let decode s = decode_at s ~off:0 ~len:(String.length s)

let type_min v =
  match v with
  | S _ -> "s"
  | I _ -> encode (I min_int)
  | F _ -> encode (F neg_infinity)
  | B _ -> encode (B false)

let type_max v =
  match v with
  | S _ -> "s" ^ String.make 64 '\xff'
  | I _ -> encode (I max_int)
  | F _ -> encode (F infinity)
  | B _ -> encode (B true)

let as_string = function S s -> Some s | I _ | F _ | B _ -> None
let as_int = function I i -> Some i | S _ | F _ | B _ -> None

let to_float = function
  | I i -> Some (float_of_int i)
  | F f -> Some f
  | S _ | B _ -> None
