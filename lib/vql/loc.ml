type t = { start : int; stop : int }

let dummy = { start = -1; stop = -1 }
let is_dummy l = l.start < 0
let make start stop = { start; stop = max start stop }

let union a b =
  if is_dummy a then b
  else if is_dummy b then a
  else { start = min a.start b.start; stop = max a.stop b.stop }

type pos = { line : int; col : int }

let pos_of_offset src off =
  let off = max 0 (min off (String.length src)) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to off - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; col = off - !bol + 1 }

let line_at src ln =
  let n = String.length src in
  let rec find_start line i =
    if line >= ln then Some i
    else
      match String.index_from_opt src i '\n' with
      | Some j -> find_start (line + 1) (j + 1)
      | None -> None
  in
  if ln < 1 then ""
  else begin
    match find_start 1 0 with
    | None -> ""
    | Some start ->
      let stop = match String.index_from_opt src start '\n' with Some j -> j | None -> n in
      String.sub src start (stop - start)
  end
