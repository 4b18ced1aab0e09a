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

let encode v =
  let body =
    match v with
    | S s -> Ophash.encode_string s
    | I i -> Ophash.encode_int i
    | F f -> Ophash.encode_float f
    | B b -> if b then "\001" else "\000"
  in
  String.make 1 (tag v) ^ body

let decode s =
  if String.length s < 1 then None
  else
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 's' -> Some (S body)
    | 'i' -> if String.length body = 8 then Some (I (Ophash.decode_int body)) else None
    | 'f' -> if String.length body = 8 then Some (F (Ophash.decode_float body)) else None
    | 'b' -> (
      match body with "\000" -> Some (B false) | "\001" -> Some (B true) | _ -> None)
    | _ -> None

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
let as_float = function F f -> Some f | S _ | I _ | B _ -> None

let to_float = function
  | I i -> Some (float_of_int i)
  | F f -> Some f
  | S _ | B _ -> None
