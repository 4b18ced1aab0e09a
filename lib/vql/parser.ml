open Ast

exception Parse_error of { span : Loc.t; message : string }

type state = {
  tokens : (Lexer.token * Loc.t) array;
  mutable pos : int;
  mutable last : Loc.t;  (* span of the most recently consumed token *)
}

let current st = st.tokens.(st.pos)
let tok_span st = snd (current st)

let fail_at span fmt =
  Format.kasprintf (fun message -> raise (Parse_error { span; message })) fmt

let fail st fmt = fail_at (tok_span st) fmt

let advance st =
  st.last <- tok_span st;
  if st.pos < Array.length st.tokens - 1 then st.pos <- st.pos + 1

let eat st tok what =
  let t, _ = current st in
  if t = tok then advance st else fail st "expected %s, found %a" what Lexer.pp_token t

let accept st tok =
  let t, _ = current st in
  if t = tok then begin
    advance st;
    true
  end
  else false

let parse_var st =
  match current st with
  | Lexer.VAR v, _ ->
    advance st;
    v
  | t, _ -> fail st "expected a ?variable, found %a" Lexer.pp_token t

let parse_literal st =
  match current st with
  | Lexer.STRING s, _ ->
    advance st;
    Value.S s
  | Lexer.INT i, _ ->
    advance st;
    Value.I i
  | Lexer.FLOAT f, _ ->
    advance st;
    Value.F f
  | Lexer.TRUE, _ ->
    advance st;
    Value.B true
  | Lexer.FALSE, _ ->
    advance st;
    Value.B false
  | t, _ -> fail st "expected a literal, found %a" Lexer.pp_token t

let parse_term st =
  match current st with
  | Lexer.VAR v, _ ->
    advance st;
    TVar v
  | _ -> TConst (parse_literal st)

let parse_pattern st =
  let start = tok_span st in
  eat st Lexer.LPAREN "'('";
  let subj = parse_term st in
  eat st Lexer.COMMA "','";
  let attr = parse_term st in
  eat st Lexer.COMMA "','";
  let obj = parse_term st in
  eat st Lexer.RPAREN "')'";
  mk_pattern ~span:(Loc.union start st.last) subj attr obj

(* Expressions *)

let cmpop_of_token = function
  | Lexer.EQ -> Some Eq
  | Lexer.NEQ -> Some Neq
  | Lexer.LT -> Some Lt
  | Lexer.LE -> Some Le
  | Lexer.GT -> Some Gt
  | Lexer.GE -> Some Ge
  | _ -> None

let rec parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  if accept st Lexer.OR then EOr (left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if accept st Lexer.AND then EAnd (left, parse_and st) else left

and parse_not st = if accept st Lexer.NOT then ENot (parse_not st) else parse_cmp st

and parse_cmp st =
  let left = parse_primary st in
  match cmpop_of_token (fst (current st)) with
  | Some op ->
    advance st;
    let right = parse_primary st in
    ECmp (op, left, right)
  | None -> left

and parse_primary st =
  match current st with
  | Lexer.VAR v, _ ->
    advance st;
    EVar v
  | Lexer.LPAREN, _ ->
    advance st;
    let e = parse_expr st in
    eat st Lexer.RPAREN "')'";
    e
  | Lexer.IDENT f, span ->
    advance st;
    eat st Lexer.LPAREN "'(' after function name";
    let a = parse_expr st in
    eat st Lexer.COMMA "','";
    let b = parse_expr st in
    eat st Lexer.RPAREN "')'";
    (match String.lowercase_ascii f with
    | "edist" -> EEdist (a, b)
    | "contains" -> EContains (a, b)
    | "prefix" -> EPrefix (a, b)
    | other -> fail_at span "unknown function %S (expected edist/contains/prefix)" other)
  | _ -> EConst (parse_literal st)

(* Clauses *)

let parse_projection st =
  if accept st Lexer.STAR then None
  else begin
    let first = parse_var st in
    let rec more acc = if accept st Lexer.COMMA then more (parse_var st :: acc) else List.rev acc in
    Some (more [ first ])
  end

let parse_order st =
  if accept st Lexer.SKYLINE then begin
    eat st Lexer.OF "OF";
    let item () =
      let v = parse_var st in
      match current st with
      | Lexer.MIN, _ ->
        advance st;
        (v, Min)
      | Lexer.MAX, _ ->
        advance st;
        (v, Max)
      | t, _ -> fail st "expected MIN or MAX after skyline variable, found %a" Lexer.pp_token t
    in
    let first = item () in
    let rec more acc = if accept st Lexer.COMMA then more (item () :: acc) else List.rev acc in
    Skyline (more [ first ])
  end
  else begin
    let item () =
      let v = parse_var st in
      match current st with
      | Lexer.ASC, _ ->
        advance st;
        (v, Asc)
      | Lexer.DESC, _ ->
        advance st;
        (v, Desc)
      | _ -> (v, Asc)
    in
    let first = item () in
    let rec more acc = if accept st Lexer.COMMA then more (item () :: acc) else List.rev acc in
    OrderBy (more [ first ])
  end

(* Returns patterns, filters and the filters' source spans (each span
   covers the FILTER keyword through the end of its expression). *)
let parse_group st =
  eat st Lexer.LBRACE "'{'";
  let patterns = ref [] and filters = ref [] in
  let rec body () =
    match current st with
    | Lexer.LPAREN, _ ->
      patterns := parse_pattern st :: !patterns;
      body ()
    | Lexer.FILTER, fspan ->
      advance st;
      let e = parse_expr st in
      filters := (e, Loc.union fspan st.last) :: !filters;
      body ()
    | Lexer.RBRACE, _ -> advance st
    | t, _ -> fail st "expected a pattern, FILTER or '}', found %a" Lexer.pp_token t
  in
  body ();
  (List.rev !patterns, List.rev !filters)

let parse_query st =
  eat st Lexer.SELECT "SELECT";
  let distinct = accept st Lexer.DISTINCT in
  let proj_start = tok_span st in
  let projection = parse_projection st in
  let proj_span = Loc.union proj_start st.last in
  eat st Lexer.WHERE "WHERE";
  let patterns, filters_spanned = parse_group st in
  if patterns = [] then fail st "WHERE block needs at least one triple pattern";
  let union_branches = ref [] in
  while accept st Lexer.UNION do
    let start = tok_span st in
    let group = parse_group st in
    union_branches := (group, Loc.union start st.last) :: !union_branches
  done;
  let union_branches = List.rev !union_branches in
  let order_start = tok_span st in
  let order =
    if accept st Lexer.ORDER then begin
      eat st Lexer.BY "BY";
      Some (parse_order st)
    end
    else None
  in
  let order_span = if order = None then Loc.dummy else Loc.union order_start st.last in
  let limit_start = tok_span st in
  let limit =
    if accept st Lexer.LIMIT then begin
      match current st with
      | Lexer.INT n, _ ->
        advance st;
        Some n
      | t, _ -> fail st "expected an integer after LIMIT, found %a" Lexer.pp_token t
    end
    else None
  in
  let limit_span = if limit = None then Loc.dummy else Loc.union limit_start st.last in
  (match current st with
  | Lexer.EOF, _ -> ()
  | t, _ -> fail st "unexpected trailing input: %a" Lexer.pp_token t);
  mk_query ~distinct ?projection
    ~filters:(List.map fst filters_spanned)
    ~filter_spans:(List.map snd filters_spanned)
    ~union_branches:(List.map (fun ((ps, fs), _) -> (ps, List.map fst fs)) union_branches)
    ~union_filter_spans:(List.map (fun ((_, fs), _) -> List.map snd fs) union_branches)
    ~union_spans:(List.map snd union_branches)
    ?order ?limit ~proj_span ~order_span ~limit_span patterns

(* rustc-style rendering: position, message, offending source line and a
   caret marking the span start. *)
let render src what span message =
  if Loc.is_dummy span then Printf.sprintf "%s: %s" what message
  else begin
    let p = Loc.pos_of_offset src span.Loc.start in
    let text = Loc.line_at src p.Loc.line in
    let caret = String.make (max 0 (p.Loc.col - 1)) ' ' ^ "^" in
    Printf.sprintf "%s at line %d, column %d: %s\n  %s\n  %s" what p.Loc.line p.Loc.col message
      text caret
  end

let parse src =
  match Lexer.tokenize src with
  | exception Lexer.Error { offset; message } ->
    Error (render src "lex error" (Loc.make offset (offset + 1)) message)
  | tokens -> (
    let st = { tokens = Array.of_list tokens; pos = 0; last = Loc.dummy } in
    match parse_query st with
    | q -> Ok q
    | exception Parse_error { span; message } -> Error (render src "parse error" span message))

let parse_exn src = match parse src with Ok q -> q | Error e -> failwith e
