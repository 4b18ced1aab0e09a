type t = { oid : string; attr : string; value : Value.t }

let validate_field what s =
  if String.length s = 0 then invalid_arg (Printf.sprintf "Triple.make: empty %s" what);
  if String.contains s '\000' then
    invalid_arg (Printf.sprintf "Triple.make: NUL byte in %s" what)

let make ~oid ~attr value =
  validate_field "oid" oid;
  validate_field "attr" attr;
  { oid; attr; value }

let compare a b =
  match String.compare a.oid b.oid with
  | 0 -> ( match String.compare a.attr b.attr with 0 -> Value.compare a.value b.value | c -> c)
  | c -> c

let equal a b = compare a b = 0

let pp fmt t = Format.fprintf fmt "(%s, %s, %a)" t.oid t.attr Value.pp t.value

let id t = Printf.sprintf "%s|%s|%08x" t.oid t.attr (Hashtbl.hash (Value.encode t.value))

let field s = Printf.sprintf "%d:%s" (String.length s) s

let serialize t = field t.oid ^ field t.attr ^ field (Value.encode t.value)

(* The field whose decimal length prefix starts at [pos], as its body's
   offset [lsl 32] plus its body's length; -1 if malformed. Packed into
   one int so that decoding a payload allocates only its result. *)
let rec read_field s pos i len =
  if i >= String.length s || i - pos > 18 then -1
  else
    match s.[i] with
    | '0' .. '9' as c -> read_field s pos (i + 1) ((len * 10) + Char.code c - Char.code '0')
    | ':' when i > pos && String.length s >= i + 1 + len -> ((i + 1) lsl 32) lor len
    | _ -> -1

let body_off f = f lsr 32
let body_len f = f land 0xFFFF_FFFF
let field_end f = body_off f + body_len f

let deserialize s =
  let o = read_field s 0 0 0 in
  let a = if o < 0 then -1 else read_field s (field_end o) (field_end o) 0 in
  let v = if a < 0 then -1 else read_field s (field_end a) (field_end a) 0 in
  if v < 0 || field_end v <> String.length s || body_len o = 0 || body_len a = 0 then None
  else
    match Value.decode_at s ~off:(body_off v) ~len:(body_len v) with
    | Some value ->
      Some
        {
          oid = String.sub s (body_off o) (body_len o);
          attr = String.sub s (body_off a) (body_len a);
          value;
        }
    | None -> None

let namespace t =
  match String.index_opt t.attr ':' with Some i -> String.sub t.attr 0 i | None -> ""

let local_name t =
  match String.index_opt t.attr ':' with
  | Some i -> String.sub t.attr (i + 1) (String.length t.attr - i - 1)
  | None -> t.attr

let tuple_to_triples ~oid fields = List.map (fun (attr, v) -> make ~oid ~attr v) fields

let triples_to_tuples ts =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      if not (Hashtbl.mem tbl t.oid) then begin
        order := t.oid :: !order;
        Hashtbl.replace tbl t.oid []
      end;
      Hashtbl.replace tbl t.oid ((t.attr, t.value) :: Hashtbl.find tbl t.oid))
    ts;
  List.rev_map (fun oid -> (oid, List.rev (Hashtbl.find tbl oid))) !order
