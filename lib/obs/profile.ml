type op = {
  label : string;
  access : string;
  carrier : int;
  rows_in : int;
  rows_out : int;
  messages : int;
  latency_ms : float;
  at_start : bool;
}

type t = {
  query : string option;
  strategy : string;
  rows : int;
  messages : int;
  latency_ms : float;
  bytes_shipped : int;
  complete : bool;
  completeness : float;
  ops : op list;
}

let op_to_json o =
  Json.Obj
    [
      ("operator", Json.Str o.label);
      ("access", Json.Str o.access);
      ("carrier", Json.Int o.carrier);
      ("rows_in", Json.Int o.rows_in);
      ("rows_out", Json.Int o.rows_out);
      ("messages", Json.Int o.messages);
      ("latency_ms", Json.Float o.latency_ms);
      ("at_start", Json.Bool o.at_start);
    ]

let to_json t =
  Json.Obj
    ((match t.query with Some q -> [ ("query", Json.Str q) ] | None -> [])
    @ [
        ("strategy", Json.Str t.strategy);
        ("rows", Json.Int t.rows);
        ("messages", Json.Int t.messages);
        ("latency_ms", Json.Float t.latency_ms);
        ("bytes_shipped", Json.Int t.bytes_shipped);
        ("complete", Json.Bool t.complete);
        ("completeness", Json.Float t.completeness);
        ("operators", Json.Arr (List.map op_to_json t.ops));
      ])

let pp fmt t =
  let headers = [ "operator"; "access"; "peer"; "rows_in"; "rows_out"; "msgs"; "ms"; "start" ] in
  let rows =
    List.map
      (fun o ->
        [
          o.label;
          o.access;
          string_of_int o.carrier;
          string_of_int o.rows_in;
          string_of_int o.rows_out;
          string_of_int o.messages;
          Printf.sprintf "%.1f" o.latency_ms;
          (if o.at_start then "plan" else "");
        ])
      t.ops
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun w r -> max w (String.length (List.nth r i))) (String.length h) rows)
      headers
  in
  let print_row cells =
    List.iter2 (fun w c -> Format.fprintf fmt "%-*s  " w c) widths cells;
    Format.fprintf fmt "@,"
  in
  Format.fprintf fmt "@[<v>";
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  Format.fprintf fmt "total: %d row(s), %d msgs, %.1f ms simulated, %d bytes shipped, %s (%s)@]"
    t.rows t.messages t.latency_ms t.bytes_shipped
    (if t.complete then "complete"
     else Printf.sprintf "PARTIAL (%.0f%% coverage)" (100.0 *. t.completeness))
    t.strategy
