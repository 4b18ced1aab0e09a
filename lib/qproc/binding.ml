module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple
module Ast = Unistore_vql.Ast

(* A schema is a sorted, duplicate-free array of variable names; a
   binding holds one value slot per name. Schemas are interned, so equal
   variable sets share one array and a schema check is a pointer
   compare. The executor lays every row of a query on one schema, so
   joins and matches work slot by slot; bindings over different schemas
   are first laid out on the union of both. *)
type schema = string array

(* Weak, so the schemas of finished queries can go; a live binding keeps
   its own schema, hence its identity, alive. *)
module Schemas = Weak.Make (struct
  type t = string array

  let equal a b = Array.length a = Array.length b && Array.for_all2 String.equal a b
  let hash = Hashtbl.hash
end)

let schemas = Schemas.create 64

type t = { schema : schema; vals : Value.t array }

(* The unbound slot: a fresh block no triple or constant is physically
   equal to. It is only ever compared with [==]. *)
let unbound = Value.S (String.make 0 ' ')

let schema vars = Schemas.merge schemas (Array.of_list (List.sort_uniq String.compare vars))
let empty_of schema = { schema; vals = Array.make (Array.length schema) unbound }
let empty = empty_of (schema [])

(* Binary search; -1 if [v] is not in the schema. *)
let slot (s : schema) v =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let c = String.compare v s.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length s)

(* [t] laid out on [s], a superset of its schema. *)
let widen t s =
  if t.schema == s then t
  else begin
    let vals = Array.make (Array.length s) unbound in
    Array.iteri (fun i v -> vals.(slot s v) <- t.vals.(i)) t.schema;
    { schema = s; vals }
  end

let align a b =
  if a.schema == b.schema then (a, b)
  else
    let s = schema (Array.to_list a.schema @ Array.to_list b.schema) in
    (widen a s, widen b s)

let get t i =
  let x = t.vals.(i) in
  if x == unbound then None else Some x

let find t v =
  let i = slot t.schema v in
  if i < 0 then None else get t i

(* Resolves [v] once per schema, not once per row. *)
let getter v =
  let last = ref [||] and i = ref (-1) in
  fun t ->
    if t.schema != !last then begin
      last := t.schema;
      i := slot t.schema v
    end;
    if !i < 0 then None else get t !i

(* Bound slots in name order, folded from the right. *)
let fold_right f t acc =
  let acc = ref acc in
  for i = Array.length t.vals - 1 downto 0 do
    let x = t.vals.(i) in
    if x != unbound then acc := f t.schema.(i) x !acc
  done;
  !acc

let bindings t = fold_right (fun v x acc -> (v, x) :: acc) t []
let vars t = fold_right (fun v _ acc -> v :: acc) t []

let bind t v x =
  let t = if slot t.schema v >= 0 then t else widen t (schema (v :: Array.to_list t.schema)) in
  let i = slot t.schema v in
  let cur = t.vals.(i) in
  if cur == unbound then begin
    let vals = Array.copy t.vals in
    vals.(i) <- x;
    Some { t with vals }
  end
  else if Value.equal cur x then Some t
  else None

(* ------------------------------------------------------------------ *)
(* Compiled patterns                                                   *)

type term = Slot of int | Const of Value.t
type pattern = { on : schema; subj : term; attr : term; obj : term }

let compile s (p : Ast.pattern) =
  let term = function
    | Ast.TConst c -> Const c
    | Ast.TVar v ->
      let i = slot s v in
      if i < 0 then invalid_arg ("Binding.compile: ?" ^ v ^ " is not in the schema");
      Slot i
  in
  { on = s; subj = term p.Ast.subj; attr = term p.Ast.attr; obj = term p.Ast.obj }

let string_fits vals term s =
  match term with
  | Const (Value.S c) -> String.equal c s
  | Const _ -> false
  | Slot i -> (
    let x = vals.(i) in
    x == unbound || match x with Value.S c -> String.equal c s | _ -> false)

let value_fits vals term v =
  match term with
  | Const c -> Value.equal c v
  | Slot i ->
    let x = vals.(i) in
    x == unbound || Value.equal x v

let opens vals = function Slot i -> vals.(i) == unbound | Const _ -> false

(* Unify slot [term] of the fresh array [vals] with [x]: the check
   above saw [base]'s values, this one also sees a variable the pattern
   itself bound a moment ago, as in (?x,'a',?x). *)
let unify vals term x =
  match term with
  | Const _ -> true
  | Slot i ->
    let cur = vals.(i) in
    if cur == unbound then begin
      vals.(i) <- x;
      true
    end
    else Value.equal cur x

let match_compiled base p (tr : Triple.t) =
  if base.schema != p.on then invalid_arg "Binding.match_compiled: schema mismatch";
  let b = base.vals in
  if
    string_fits b p.subj tr.Triple.oid
    && string_fits b p.attr tr.Triple.attr
    && value_fits b p.obj tr.Triple.value
  then
    if opens b p.subj || opens b p.attr || opens b p.obj then begin
      let vals = Array.copy b in
      if
        unify vals p.subj (Value.S tr.Triple.oid)
        && unify vals p.attr (Value.S tr.Triple.attr)
        && unify vals p.obj tr.Triple.value
      then Some { schema = base.schema; vals }
      else None
    end
    else Some base
  else None

let match_triple_into base (p : Ast.pattern) tr =
  let base = widen base (schema (Array.to_list base.schema @ Ast.pattern_vars p)) in
  match_compiled base (compile base.schema p) tr

let match_triple p tr = match_triple_into empty p tr

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)

(* [a] and [b] over one schema. *)
let merge a b =
  let n = Array.length a.vals in
  let ok = ref true and adds = ref false in
  for i = 0 to n - 1 do
    let y = b.vals.(i) in
    if y != unbound then begin
      let x = a.vals.(i) in
      if x == unbound then adds := true else if not (Value.equal x y) then ok := false
    end
  done;
  if not !ok then None
  else if not !adds then Some a
  else begin
    let vals = Array.copy a.vals in
    for i = 0 to n - 1 do
      if vals.(i) == unbound then vals.(i) <- b.vals.(i)
    done;
    Some { a with vals }
  end

let compatible a b =
  if a.schema == b.schema then merge a b
  else
    let a, b = align a b in
    merge a b

let shared_slots a b =
  if a.schema != b.schema then invalid_arg "Binding.shared_slots: schema mismatch";
  let shared = ref [] in
  for i = Array.length a.vals - 1 downto 0 do
    if a.vals.(i) != unbound && b.vals.(i) != unbound then shared := i :: !shared
  done;
  Array.of_list !shared

(* -1 if some slot is unbound. *)
let rec hash_from slots t h k =
  if k = Array.length slots then h land max_int
  else
    let x = t.vals.(slots.(k)) in
    if x == unbound then -1 else hash_from slots t ((h * 31) + Value.hash x) (k + 1)

let hash_at slots t = hash_from slots t 0 0

let rec equal_from slots a b k =
  k = Array.length slots
  || (Value.equal a.vals.(slots.(k)) b.vals.(slots.(k)) && equal_from slots a b (k + 1))

let equal_at slots a b = equal_from slots a b 0

let join_key vs t =
  let buf = Buffer.create 32 in
  let rec go = function
    | [] -> Some (Buffer.contents buf)
    | v :: rest -> (
      match find t v with
      | Some value ->
        Buffer.add_string buf (Value.encode value);
        Buffer.add_char buf '\000';
        go rest
      | None -> None)
  in
  go vs

(* Resolves which slots to keep once per schema, not once per row; a row
   that binds nothing outside [vs] comes back as is. *)
let project vs =
  let last = ref [||] and drop = ref [||] in
  fun t ->
    if t.schema != !last then begin
      last := t.schema;
      drop := Array.map (fun v -> not (List.exists (String.equal v) vs)) t.schema
    end;
    let drop = !drop in
    let rec dirty i =
      i < Array.length drop && ((drop.(i) && t.vals.(i) != unbound) || dirty (i + 1))
    in
    if not (dirty 0) then t
    else { t with vals = Array.mapi (fun i x -> if drop.(i) then unbound else x) t.vals }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let fingerprint t =
  let buf = Buffer.create 64 in
  Array.iteri
    (fun i x ->
      if x != unbound then begin
        Buffer.add_string buf t.schema.(i);
        Buffer.add_char buf '=';
        Buffer.add_string buf (Value.encode x);
        Buffer.add_char buf ';'
      end)
    t.vals;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Row batches                                                         *)

let iter_values f t =
  for i = 0 to Array.length t.vals - 1 do
    let x = t.vals.(i) in
    if x != unbound then f x
  done

let same_vars a b =
  if a.schema == b.schema then
    let rec go i = i < 0 || ((a.vals.(i) == unbound) = (b.vals.(i) == unbound) && go (i - 1)) in
    go (Array.length a.vals - 1)
  else List.equal String.equal (vars a) (vars b)

let batch_vars = function
  | [] -> []
  | r :: rest ->
    if not (List.for_all (same_vars r) rest) then
      invalid_arg "Binding.batch_vars: the rows bind different variables";
    vars r

let equal a b =
  List.equal (fun (v, x) (w, y) -> String.equal v w && Value.equal x y) (bindings a) (bindings b)

let pp fmt t =
  Format.fprintf fmt "{";
  List.iteri
    (fun i (v, x) ->
      if i > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "?%s=%a" v Value.pp x)
    (bindings t);
  Format.fprintf fmt "}"

let lookup t v = find t v
