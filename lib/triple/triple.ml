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
