(* A source-level lint over the repo's own OCaml tree, built on
   compiler-libs: each file is parsed with the compiler's own parser
   (no ppx, no typing) and walked with [Ast_iterator]. The rules encode
   the determinism contract (DESIGN.md) and the protocol discipline that
   [Tracelint] can only check after the fact, at run time, at a handful
   of sizes — here they are checked at build time, over every line.

   Findings go through the same positioned-diagnostic machinery as the
   VQL analyzer ([Diagnostic] over byte-offset [Loc] spans), so the
   output matches the rest of the static-analysis layer. A finding is
   suppressed by annotating its line:

     (* srclint: allow <rule> [<rule> ...] *)

   which is reserved for uses that are genuinely order-insensitive (a
   commutative integer fold, a min-selection under a total order) — the
   annotation is a claim the reviewer can grep for. *)

module D = Diagnostic
module Loc = Unistore_vql.Loc
open Parsetree

type rule =
  | Unordered_iteration
  | Ambient_effects
  | Polymorphic_compare
  | Protocol_exhaustiveness
  | Blocking_wait
  | Uncancelled_timeout
  | Oracle

let all_rules =
  [
    Unordered_iteration;
    Ambient_effects;
    Polymorphic_compare;
    Protocol_exhaustiveness;
    Blocking_wait;
    Uncancelled_timeout;
    Oracle;
  ]

let rule_name = function
  | Unordered_iteration -> "unordered-iteration"
  | Ambient_effects -> "ambient-effects"
  | Polymorphic_compare -> "polymorphic-compare"
  | Protocol_exhaustiveness -> "protocol-exhaustiveness"
  | Blocking_wait -> "blocking-wait"
  | Uncancelled_timeout -> "uncancelled-timeout"
  | Oracle -> "oracle"

let rule_of_name s = List.find_opt (fun r -> String.equal (rule_name r) s) all_rules

(* ------------------------------------------------------------------ *)
(* Parsing and positions                                               *)

let span_of_loc (l : Location.t) =
  let s = l.Location.loc_start.Lexing.pos_cnum and e = l.Location.loc_end.Lexing.pos_cnum in
  if s < 0 then Loc.dummy else Loc.make s e

let parse ~path src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception _ ->
    let off = lexbuf.Lexing.lex_curr_p.Lexing.pos_cnum in
    Error
      (D.make ~span:(Loc.make off off) ~severity:D.Error ~code:"parse-error"
         (Printf.sprintf "%s does not parse as an OCaml implementation" path))

(* ------------------------------------------------------------------ *)
(* Identifier shapes                                                   *)

let flatten lid = try Longident.flatten lid with _ -> []

(* Strip an optional [Stdlib.] qualification. *)
let unqualify = function "Stdlib" :: rest -> rest | parts -> parts

(* [Hashtbl.fold]/[iter]/[to_seq*]: iteration in hash-bucket order. *)
let hash_iteration lid =
  match unqualify (flatten lid) with
  | [ "Hashtbl"; f ] when List.mem f [ "fold"; "iter"; "to_seq"; "to_seq_keys"; "to_seq_values" ]
    ->
    Some f
  | _ -> None

(* Normalizers: applying one of these to (a pipeline ending in) a
   hash-order fold re-establishes a deterministic order. *)
let sortish lid =
  match flatten lid with
  | [] -> false
  | parts ->
    let last = List.nth parts (List.length parts - 1) in
    List.mem last [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort" ]
    || (String.length last >= 6 && String.equal (String.sub last 0 6) "sorted")

let rec head_fn e =
  match e.pexp_desc with
  | Pexp_ident lid -> Some lid.Location.txt
  | Pexp_apply (f, _) -> head_fn f
  | Pexp_constraint (e, _) -> head_fn e
  | _ -> None

let ident_is e names =
  match e.pexp_desc with
  | Pexp_ident lid -> (
    match unqualify (flatten lid.Location.txt) with [ n ] -> List.mem n names | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Rule: unordered-iteration                                           *)

(* Two passes. Pass 1 collects the offsets of hash-order iterations that
   are syntactically normalized — somewhere up the expression tree their
   result feeds a sort ([List.sort f (Hashtbl.fold ...)],
   [Hashtbl.fold ... |> List.sort f], [List.sort f @@ Hashtbl.fold ...],
   or a [Det.sorted_*] / [*sorted*]-named helper). Pass 2 flags the
   rest. A fold whose result is let-bound and sorted later is NOT
   recognized — pipe it directly into the sort, which also reads
   better. *)

let collect_sanctioned structure =
  let sanctioned : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let bless e =
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.pexp_desc with
            | Pexp_ident lid when hash_iteration lid.Location.txt <> None ->
              Hashtbl.replace sanctioned e.pexp_loc.Location.loc_start.Lexing.pos_cnum ()
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.expr it e
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
            match head_fn f with
            | Some lid when sortish lid -> List.iter (fun (_, a) -> bless a) args
            | _ -> (
              match (f.pexp_desc, args) with
              | Pexp_ident { Location.txt = Longident.Lident "|>"; _ }, [ (_, lhs); (_, rhs) ]
                when match head_fn rhs with Some lid -> sortish lid | None -> false ->
                bless lhs
              | Pexp_ident { Location.txt = Longident.Lident "@@"; _ }, [ (_, lhs); (_, rhs) ]
                when match head_fn lhs with Some lid -> sortish lid | None -> false ->
                bless rhs
              | _ -> ()))
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure;
  sanctioned

let check_unordered_iteration structure =
  let sanctioned = collect_sanctioned structure in
  let diags = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident lid -> (
            match hash_iteration lid.Location.txt with
            | Some f when not (Hashtbl.mem sanctioned e.pexp_loc.Location.loc_start.Lexing.pos_cnum)
              ->
              diags :=
                D.makef ~span:(span_of_loc e.pexp_loc) ~severity:D.Error
                  ~code:"unordered-iteration"
                  ~hint:
                    "pipe the result into List.sort / use Det.sorted_bindings, or annotate the \
                     line with (* srclint: allow unordered-iteration *) if the use is \
                     order-insensitive"
                  "Hashtbl.%s iterates in hash-bucket order; an escaping result is a latent \
                   determinism violation"
                  f
                :: !diags
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Rules on an identifier's path alone                                 *)

(* [flag_idents ~code ~hint matches] flags every identifier whose path
   [matches] maps to a message. The body of a [module <skip>] is not
   walked. *)
let flag_idents ~code ~hint ?skip matches structure =
  let diags = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident lid -> (
            match matches (flatten lid.Location.txt) with
            | Some message ->
              diags :=
                D.make ~span:(span_of_loc e.pexp_loc) ~severity:D.Error ~code ~hint message
                :: !diags
            | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
      module_binding =
        (fun it mb ->
          match (skip, mb.pmb_name.Location.txt) with
          | Some s, Some n when String.equal s n -> ()
          | _ -> Ast_iterator.default_iterator.module_binding it mb);
    }
  in
  it.structure it structure;
  List.rev !diags

let in_dir dir path =
  let n = String.length path and m = String.length dir in
  let rec from i =
    i + m <= n
    && ((String.sub path i m = dir && (i = 0 || path.[i - 1] = '/')) || from (i + 1))
  in
  from 0

let path_ends_with path suffix =
  let n = String.length path and m = String.length suffix in
  n >= m && String.sub path (n - m) m = suffix

(* ambient-effects: the seeded split-RNG (lib/util/rng.ml) is the one
   place randomness may originate. *)
let check_ambient_effects =
  flag_idents ~code:"ambient-effects"
    ~hint:
      "all randomness and time must flow from the seeded split-RNG (Unistore_util.Rng) and the \
       simulated clock (Sim.now); ambient sources make traces unreproducible"
    (fun parts ->
      match unqualify parts with
      | "Random" :: _ :: _ -> Some "use of ambient effect source Random"
      | [ "Sys"; "time" ] -> Some "use of ambient effect source Sys.time"
      | [ "Unix"; f ]
        when List.mem f [ "gettimeofday"; "time"; "times"; "gmtime"; "localtime"; "sleep"; "sleepf" ]
        ->
        Some ("use of ambient effect source Unix." ^ f)
      | _ -> None)

(* blocking-wait: everything below the facade is continuation-passing;
   a call that drives the event loop from inside it would block every
   other query in flight, and would wait for the whole queue to drain
   when the awaited event never comes. The simulator itself is exempt. *)
let blocking_calls = [ "await"; "run_until"; "run_all"; "run_for" ]

let check_blocking_wait =
  flag_idents ~code:"blocking-wait"
    ~hint:"pass a continuation instead; only the facade (lib/core/unistore.ml) waits, with Sim.await"
    (fun parts ->
      match List.rev parts with
      | f :: "Sim" :: _ when List.mem f blocking_calls ->
        Some (Printf.sprintf "Sim.%s drives the event loop below the facade" f)
      | _ -> None)

(* oracle: a peer acts on its own state and the messages it received;
   what only the simulator knows (liveness, partitions, placement) sits
   in [Oracle] modules. The simulator, the auditor, the facade and the
   CLI may read them, as may an [Oracle] module's own body; anywhere
   else a read names its owner (DESIGN.md, "What a peer may know"). *)
let oracle_readers = [ "lib/sim/"; "lib/analysis/"; "lib/core/"; "bin/" ]

let check_oracle =
  flag_idents ~code:"oracle" ~skip:"Oracle"
    ~hint:
      "act on what the peer knows; a read that must stay names its owner: (* srclint: allow \
       oracle <driver|item-N|unowned> *)"
    (fun parts ->
      if not (List.mem "Oracle" parts) then None
      else Some (String.concat "." parts ^ " reads the simulator's global view from peer code"))

(* ------------------------------------------------------------------ *)
(* Rule: uncancelled-timeout                                           *)

(* A deadline the guarded operation can beat must be cancellable: a
   plain [Sim.schedule] of one stays queued after the operation
   finished, holds what it captures, and holds the clock until it fires
   to no effect. The syntactic sign is a [Sim.schedule] whose delay
   mentions [timeout_ms]. The simulator itself is exempt. *)
let mentions_timeout expr =
  let found = ref false in
  let named lid = match List.rev (flatten lid) with "timeout_ms" :: _ -> true | _ -> false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident lid | Pexp_field (_, lid) -> if named lid.Location.txt then found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr;
  !found

let check_uncancelled_timeout structure =
  let diags = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) -> (
            match List.rev (flatten lid.Location.txt) with
            | "schedule" :: "Sim" :: _ ->
              if
                List.exists
                  (fun (label, arg) ->
                    match label with
                    | Asttypes.Labelled "delay" -> mentions_timeout arg
                    | _ -> false)
                  args
              then
                diags :=
                  D.makef ~span:(span_of_loc e.pexp_loc) ~severity:D.Error
                    ~code:"uncancelled-timeout"
                    ~hint:"use Sim.timer and cancel it when the operation finishes"
                    "a timeout scheduled with Sim.schedule cannot be cancelled"
                  :: !diags
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Rule: polymorphic-compare                                           *)

(* Syntactic type evidence on the untyped AST: an operand is considered
   float-valued if it is a float literal, float arithmetic, a
   float-typed constraint, or a [Float] module call that returns float;
   Bitkey-valued if it is built by a [Bitkey] constructor-like call.
   Sound but far from complete — the rule catches the places where the
   dedicated comparator was plainly available at the call site. *)

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let float_returning_float_fn = function
  | "equal" | "compare" | "to_int" | "to_string" | "of_string" | "is_nan" | "is_finite"
  | "is_integer" | "sign_bit" | "hash" ->
    false
  | _ -> true

let bitkey_builders =
  [
    "empty"; "append_bit"; "concat"; "take"; "drop"; "flip"; "of_string"; "of_int64";
    "of_bytes_prefix"; "random"; "pad";
  ]

let rec operand_type e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> Some "float"
  | Pexp_constraint (e', ty) -> (
    match ty.ptyp_desc with
    | Ptyp_constr ({ Location.txt = Longident.Lident "float"; _ }, []) -> Some "float"
    | Ptyp_constr ({ Location.txt = lid; _ }, []) when flatten lid = [ "Bitkey"; "t" ] ->
      Some "Bitkey.t"
    | _ -> operand_type e')
  | Pexp_apply (f, _) -> (
    match f.pexp_desc with
    | Pexp_ident { Location.txt = lid; _ } -> (
      match unqualify (flatten lid) with
      | [ op ] when List.mem op float_ops -> Some "float"
      | [ "Float"; fn ] when float_returning_float_fn fn -> Some "float"
      | [ "Bitkey"; fn ] when List.mem fn bitkey_builders -> Some "Bitkey.t"
      | _ -> None)
    | _ -> None)
  | Pexp_ident { Location.txt = lid; _ } when flatten lid = [ "Bitkey"; "empty" ] ->
    Some "Bitkey.t"
  | _ -> None

let dedicated_comparator ~ty ~op =
  match (ty, op) with
  | "float", ("=" | "<>") -> "Float.equal"
  | "float", _ -> "Float.compare"
  | _, ("=" | "<>") -> "Bitkey.equal"
  | _, _ -> "Bitkey.compare"

let check_polymorphic_compare structure =
  let diags = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (f, ((_, a) :: (_, b) :: _ as _args)) when ident_is f [ "="; "<>"; "compare" ]
            -> (
            let op =
              match f.pexp_desc with
              | Pexp_ident { Location.txt = lid; _ } -> (
                match unqualify (flatten lid) with [ n ] -> n | _ -> "compare")
              | _ -> "compare"
            in
            match
              match operand_type a with Some t -> Some t | None -> operand_type b
            with
            | Some ty ->
              diags :=
                D.makef ~span:(span_of_loc e.pexp_loc) ~severity:D.Error
                  ~code:"polymorphic-compare"
                  ~hint:
                    "structural (=)/compare on float or Bitkey.t diverges from the dedicated \
                     comparator (NaN handling, packed representations); use the typed one"
                  "polymorphic %s applied at a %s-typed position; use %s" op ty
                  (dedicated_comparator ~ty ~op)
                :: !diags
            | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Rule: protocol-exhaustiveness                                       *)

(* Cross-checks the static {!Protocol} table against the sources: the
   message type's constructors, the explicit (non-wildcard) arms of the
   [size]/[kind] functions and of the overlay's [dispatch], the kind
   strings those arms return, and — for request kinds — the pending-table
   [op] labels the handler registers retries under. The compiler already
   guarantees exhaustiveness of total matches; what it cannot see is a
   new constructor silently swallowed by a wildcard arm, a kind string
   that drifted from the table, or a request kind nobody ever retries. *)

type protocol_spec = {
  proto_name : string;
  table : Protocol.entry list;
  type_name : string;
  size_fn : string;
  kind_fn : string;
  dispatch_fn : string;
}

let pgrid_spec =
  {
    proto_name = "pgrid";
    table = Protocol.pgrid;
    type_name = "t";
    size_fn = "size";
    kind_fn = "kind";
    dispatch_fn = "dispatch";
  }

let chord_spec =
  {
    proto_name = "chord";
    table = Protocol.chord;
    type_name = "msg";
    size_fn = "msg_size";
    kind_fn = "msg_kind";
    dispatch_fn = "dispatch";
  }

(* Constructor names appearing anywhere in a pattern. *)
let pattern_constructors p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_construct ({ Location.txt = lid; _ }, _) -> (
            match flatten lid with
            | [] -> ()
            | parts -> acc := List.nth parts (List.length parts - 1) :: !acc)
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it p;
  List.rev !acc

let rec top_is_catch_all p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p', _) | Ppat_constraint (p', _) -> top_is_catch_all p'
  | Ppat_or (a, b) -> top_is_catch_all a || top_is_catch_all b
  | _ -> false

(* The string constant a case body evaluates to, if it plainly does. *)
let rec body_string e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | Pexp_constraint (e', _) -> body_string e'
  | _ -> None

(* Find [let <name> ... = ...] at the structure's top level (or inside
   top-level modules), returning its binding. *)
let find_binding structure name =
  let found = ref None in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { Location.txt; _ } when String.equal txt name && !found = None ->
            found := Some vb
          | _ -> ());
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.structure it structure;
  !found

(* The match cases a [function]-style or [fun ... -> match]-style
   definition dispatches on. For nested matches (a handler matching on
   a sub-structure inside an arm) the inner cases are collected too;
   only constructor presence is checked, so extras are harmless. *)
let cases_of_binding vb =
  let cases = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_function cs | Pexp_match (_, cs) -> cases := !cases @ cs
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it vb.pvb_expr;
  !cases

(* Constructors of [type <name>], with the type declaration's location. *)
let find_variant structure name =
  let found = ref None in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun it td ->
          (match (td.ptype_name.Location.txt, td.ptype_kind) with
          | n, Ptype_variant cds when String.equal n name && !found = None ->
            found :=
              Some
                ( td.ptype_loc,
                  List.map (fun cd -> (cd.pcd_name.Location.txt, cd.pcd_loc)) cds )
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration it td);
    }
  in
  it.structure it structure;
  !found

(* All [op = "..."] record fields and [~op:"..."] labelled arguments. *)
let collect_op_labels structure =
  let ops = ref [] in
  let field_is_op (lid : Longident.t Location.loc) =
    match flatten lid.Location.txt with
    | [] -> false
    | parts -> String.equal (List.nth parts (List.length parts - 1)) "op"
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_record (fields, _) ->
            List.iter
              (fun (lid, v) ->
                match (field_is_op lid, body_string v) with
                | true, Some s -> ops := s :: !ops
                | _ -> ())
              fields
          | Pexp_apply (_, args) ->
            List.iter
              (fun (label, v) ->
                match (label, body_string v) with
                | Asttypes.Labelled "op", Some s -> ops := s :: !ops
                | _ -> ())
              args
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure;
  List.sort_uniq String.compare !ops

(* [check_protocol ~spec ~decl ~handlers] returns [(path, diagnostic)]
   pairs; [decl] is the (path, parsed AST) of the message-type file and
   [handlers] the files holding [dispatch] and the pending-table
   registrations (for a self-contained substrate like Chord, the same
   file). *)
let check_protocol ~spec ~decl:(decl_path, decl_ast) ~handlers =
  let diags = ref [] in
  let report ?span path fmt =
    Format.kasprintf
      (fun message ->
        diags :=
          (path, D.make ?span ~severity:D.Error ~code:"protocol-exhaustiveness" message)
          :: !diags)
      fmt
  in
  let table_ctors = List.map (fun (e : Protocol.entry) -> e.Protocol.constructor) spec.table in
  (match find_variant decl_ast spec.type_name with
  | None ->
    report decl_path "no variant type '%s' found for protocol '%s'" spec.type_name
      spec.proto_name
  | Some (ty_loc, ctors) ->
    (* Table <-> type agreement, both directions. *)
    List.iter
      (fun (c, loc) ->
        if not (List.mem c table_ctors) then
          report ~span:(span_of_loc loc) decl_path
            "constructor %s is not in the static protocol table (Protocol.%s); add an entry \
             with its kind and request/reply role"
            c spec.proto_name)
      ctors;
    List.iter
      (fun c ->
        if not (List.mem_assoc c ctors) then
          report ~span:(span_of_loc ty_loc) decl_path
            "protocol table entry %s has no constructor in type '%s'" c spec.type_name)
      table_ctors;
    (* size/kind arms: every constructor matched explicitly. *)
    let check_fn fn_name ~want_kind_strings =
      match find_binding decl_ast fn_name with
      | None -> report decl_path "no function '%s' found for protocol '%s'" fn_name spec.proto_name
      | Some vb ->
        let cases = cases_of_binding vb in
        let matched = List.concat_map (fun c -> pattern_constructors c.pc_lhs) cases in
        let has_catch_all = List.exists (fun c -> top_is_catch_all c.pc_lhs) cases in
        List.iter
          (fun (c, loc) ->
            if not (List.mem c matched) then
              report ~span:(span_of_loc loc) decl_path
                "constructor %s has no explicit arm in '%s'%s" c fn_name
                (if has_catch_all then " (a wildcard arm hides it)" else ""))
          ctors;
        if want_kind_strings then
          List.iter
            (fun case ->
              match body_string case.pc_rhs with
              | None -> ()
              | Some s ->
                List.iter
                  (fun c ->
                    match
                      List.find_opt
                        (fun (e : Protocol.entry) -> String.equal e.Protocol.constructor c)
                        spec.table
                    with
                    | Some e when not (String.equal e.Protocol.kind s) ->
                      report ~span:(span_of_loc case.pc_lhs.ppat_loc) decl_path
                        "'%s' maps %s to %S but the protocol table says %S" fn_name c s
                        e.Protocol.kind
                    | _ -> ())
                  (pattern_constructors case.pc_lhs))
            cases
    in
    check_fn spec.size_fn ~want_kind_strings:false;
    check_fn spec.kind_fn ~want_kind_strings:true;
    (* dispatch: every constructor handled explicitly in some handler. *)
    let dispatch_ctors =
      List.concat_map
        (fun (_, ast) ->
          match find_binding ast spec.dispatch_fn with
          | None -> []
          | Some vb -> List.concat_map (fun c -> pattern_constructors c.pc_lhs) (cases_of_binding vb))
        handlers
    in
    if dispatch_ctors = [] then
      report decl_path "no '%s' function found in any handler file for protocol '%s'"
        spec.dispatch_fn spec.proto_name
    else
      List.iter
        (fun (c, loc) ->
          if not (List.mem c dispatch_ctors) then
            report ~span:(span_of_loc loc) decl_path
              "constructor %s is never matched by '%s'; the message would hit the handler's \
               wildcard (or nothing at all)"
              c spec.dispatch_fn)
        ctors;
    (* Retry coverage: every request op label is registered somewhere. *)
    let op_labels = List.concat_map (fun (_, ast) -> collect_op_labels ast) handlers in
    List.iter
      (fun (e : Protocol.entry) ->
        match e.Protocol.role with
        | Protocol.Request { ops } ->
          List.iter
            (fun op ->
              if not (List.mem op op_labels) then
                report decl_path
                  "request kind %S must appear in the retry/timeout table: no pending-table \
                   registration labeled op=%S found in the handler sources"
                  e.Protocol.kind op)
            ops
        | Protocol.Reply | Protocol.Background -> ())
      spec.table);
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Suppression                                                         *)

(* Per-line [(* srclint: allow <rule> ... *)] annotations. The comment
   must sit on the same line as the finding it suppresses. *)
let allow_marker = "srclint: allow"

let allows_on_line src ~line =
  let text = Loc.line_at src line in
  match
    let n = String.length text and m = String.length allow_marker in
    let rec find i =
      if i + m > n then None
      else if String.sub text i m = allow_marker then Some (i + m)
      else find (i + 1)
    in
    find 0
  with
  | None -> []
  | Some start ->
    let stop =
      let n = String.length text in
      let rec find i = if i + 1 >= n then n else if text.[i] = '*' && text.[i + 1] = ')' then i else find (i + 1) in
      find start
    in
    String.sub text start (stop - start)
    |> String.split_on_char ' '
    |> List.concat_map (String.split_on_char ',')
    |> List.filter (fun s -> s <> "")

let suppressed src ~rule (d : D.t) =
  (not (Loc.is_dummy d.D.span))
  &&
  let line = (Loc.pos_of_offset src d.D.span.Loc.start).Loc.line in
  List.mem (rule_name rule) (allows_on_line src ~line)

let rule_of_code = function
  | "unordered-iteration" -> Unordered_iteration
  | "ambient-effects" -> Ambient_effects
  | "polymorphic-compare" -> Polymorphic_compare
  | "blocking-wait" -> Blocking_wait
  | "uncancelled-timeout" -> Uncancelled_timeout
  | "oracle" -> Oracle
  | _ -> Protocol_exhaustiveness

let apply_suppressions src diags =
  List.filter (fun (d : D.t) -> not (suppressed src ~rule:(rule_of_code d.D.code) d)) diags

(* ------------------------------------------------------------------ *)
(* Per-file driver                                                     *)

let lint_source ?(rules = all_rules) ~path src =
  match parse ~path src with
  | Error d -> [ d ]
  | Ok ast ->
    let run rule =
      if not (List.mem rule rules) then []
      else
        match rule with
        | Unordered_iteration -> check_unordered_iteration ast
        | Ambient_effects ->
          if path_ends_with path "lib/util/rng.ml" then [] else check_ambient_effects ast
        | Polymorphic_compare -> check_polymorphic_compare ast
        | Blocking_wait -> if in_dir "lib/sim/" path then [] else check_blocking_wait ast
        | Uncancelled_timeout -> if in_dir "lib/sim/" path then [] else check_uncancelled_timeout ast
        | Oracle ->
          if List.exists (fun d -> in_dir d path) oracle_readers then [] else check_oracle ast
        | Protocol_exhaustiveness -> []
    in
    D.sort (apply_suppressions src (List.concat_map run all_rules))

(* ------------------------------------------------------------------ *)
(* Tree driver                                                         *)

type report = { path : string; src : string; diags : D.t list }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_ml path = Filename.check_suffix path ".ml"

let rec ml_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.filter (fun e -> not (String.length e > 0 && e.[0] = '.') && e <> "_build")
    |> List.concat_map (fun e -> ml_files_under (Filename.concat path e))
  else if is_ml path then [ path ]
  else []

let lint_paths ?(rules = all_rules) paths =
  let files = List.concat_map ml_files_under paths |> List.sort_uniq String.compare in
  let sources = List.map (fun p -> (p, read_file p)) files in
  let base =
    List.map (fun (path, src) -> { path; src; diags = lint_source ~rules ~path src }) sources
  in
  if not (List.mem Protocol_exhaustiveness rules) then base
  else begin
    (* Cross-file protocol checks, attached to the files they point at. *)
    let parsed = List.filter_map (fun (p, src) -> match parse ~path:p src with Ok a -> Some (p, src, a) | Error _ -> None) sources in
    let find suffix = List.find_opt (fun (p, _, _) -> path_ends_with p suffix) parsed in
    let protocol_diags =
      (match (find "pgrid/message.ml", find "pgrid/overlay.ml") with
      | Some (mp, _, mast), Some (op, _, oast) ->
        check_protocol ~spec:pgrid_spec ~decl:(mp, mast) ~handlers:[ (op, oast) ]
      | _ -> [])
      @
      match find "chord/chord.ml" with
      | Some (cp, _, cast) ->
        check_protocol ~spec:chord_spec ~decl:(cp, cast) ~handlers:[ (cp, cast) ]
      | None -> []
    in
    List.map
      (fun r ->
        let extra =
          List.filter_map
            (fun (p, d) -> if String.equal p r.path then Some d else None)
            protocol_diags
        in
        { r with diags = D.sort (apply_suppressions r.src (r.diags @ extra)) })
      base
  end

let errors reports =
  List.fold_left
    (fun acc r ->
      let e, _, _ = D.count r.diags in
      acc + e)
    0 reports

let has_errors reports = List.exists (fun r -> D.has_errors r.diags) reports

let render_reports reports =
  let b = Buffer.create 1024 in
  let total_e = ref 0 and total_w = ref 0 in
  List.iter
    (fun r ->
      if r.diags <> [] then begin
        let e, w, _ = D.count r.diags in
        total_e := !total_e + e;
        total_w := !total_w + w;
        Buffer.add_string b (Printf.sprintf "%s:\n" r.path);
        List.iter
          (fun d -> Buffer.add_string b (D.render ~src:r.src d ^ "\n"))
          r.diags
      end)
    reports;
  Buffer.add_string b
    (Printf.sprintf "srclint: %d file(s) checked, %d error(s), %d warning(s)\n"
       (List.length reports) !total_e !total_w);
  Buffer.contents b
