(* Two representations behind one immutable interface:

   - [S]: bitstrings of up to 64 bits, packed into two plain OCaml ints
     ([hi] holds bits 0..31 in its low 32 bits left-aligned, [lo] holds
     bits 32..63 the same way). Every P-Grid trie path and every routing
     decision lives here: [get]/[compare]/[common_prefix_len]/[equal]
     are a handful of integer ops with no memory traffic beyond the one
     record, which is what lets the simulator route millions of events
     per second.
   - [W]: longer bitstrings (the 256-bit order-preserving hash keys),
     packed MSB-first into bytes: bit [i] lives in byte [i/8] at bit
     position [7 - i mod 8].

   Normalization invariant: [len <= 64] is always [S], [len > 64] is
   always [W] — so [equal]/[hash] never have to compare across
   representations. In both, bits beyond [len] are kept zero, which
   makes whole-word/whole-byte comparison valid. *)

type t =
  | S of { len : int; hi : int; lo : int }
  | W of { len : int; data : Bytes.t }

let empty = S { len = 0; hi = 0; lo = 0 }

let length = function S { len; _ } -> len | W { len; _ } -> len

let bytes_for_bits n = (n + 7) / 8

(* Mask keeping the top [k] bits of a 32-bit word, 0 <= k <= 32. *)
let mask_top k = if k <= 0 then 0 else 0xFFFFFFFF lxor (0xFFFFFFFF lsr k)

(* Bit [i] of an [S], no bounds check: i in [0, 64). *)
let s_get hi lo i =
  if i < 32 then (hi lsr (31 - i)) land 1 <> 0 else (lo lsr (63 - i)) land 1 <> 0

let get t i =
  if i < 0 || i >= length t then invalid_arg "Bitkey.get: index out of bounds";
  match t with
  | S { hi; lo; _ } -> s_get hi lo i
  | W { data; _ } ->
    let byte = Char.code (Bytes.get data (i / 8)) in
    byte land (1 lsl (7 - (i mod 8))) <> 0

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)

let unsafe_set data i b =
  let idx = i / 8 in
  let mask = 1 lsl (7 - (i mod 8)) in
  let cur = Char.code (Bytes.get data idx) in
  let v = if b then cur lor mask else cur land lnot mask in
  Bytes.set data idx (Char.chr v)

let make_zeroed len = Bytes.make (bytes_for_bits len) '\000'

(* Generic constructor from a bit producer; dispatches to the packed
   representation. Only non-hot operations (concat, drop, parsing) go
   through here. *)
let init len f =
  if len <= 64 then begin
    let hi = ref 0 and lo = ref 0 in
    for i = 0 to min 31 (len - 1) do
      if f i then hi := !hi lor (1 lsl (31 - i))
    done;
    for i = 32 to len - 1 do
      if f i then lo := !lo lor (1 lsl (63 - i))
    done;
    S { len; hi = !hi; lo = !lo }
  end
  else begin
    let data = make_zeroed len in
    for i = 0 to len - 1 do
      if f i then unsafe_set data i true
    done;
    W { len; data }
  end

(* The i-th byte of the packed bit pattern, valid for any representation;
   used by the mixed-width comparison loops. *)
let byte_at t k =
  match t with
  | S { hi; lo; _ } ->
    if k < 4 then (hi lsr (8 * (3 - k))) land 0xFF else (lo lsr (8 * (7 - k))) land 0xFF
  | W { data; _ } -> Char.code (Bytes.get data k)

(* ------------------------------------------------------------------ *)
(* Structural operations                                               *)

let append_bit t b =
  match t with
  | S { len; hi; lo } when len < 32 ->
    S { len = len + 1; hi = (if b then hi lor (1 lsl (31 - len)) else hi); lo }
  | S { len; hi; lo } when len < 64 ->
    S { len = len + 1; hi; lo = (if b then lo lor (1 lsl (63 - len)) else lo) }
  | t ->
    let len = length t in
    init (len + 1) (fun i -> if i = len then b else get t i)

let take t n =
  if n < 0 || n > length t then invalid_arg "Bitkey.take";
  if n = length t then t
  else begin
    match t with
    | S { hi; lo; _ } ->
      if n <= 32 then S { len = n; hi = hi land mask_top n; lo = 0 }
      else S { len = n; hi; lo = lo land mask_top (n - 32) }
    | W { data; _ } when n > 64 ->
      let ndata = make_zeroed n in
      Bytes.blit data 0 ndata 0 (bytes_for_bits n);
      (* Clear trailing bits of the last byte beyond position n. *)
      let rem = n mod 8 in
      if rem <> 0 then begin
        let last = bytes_for_bits n - 1 in
        let keep = 0xFF lxor (0xFF lsr rem) in
        Bytes.set ndata last (Char.chr (Char.code (Bytes.get ndata last) land keep))
      end;
      W { len = n; data = ndata }
    | W _ as t ->
      (* Truncation crosses the representation boundary: repack as S. *)
      init n (fun i -> get t i)
  end

let drop t n =
  if n < 0 || n > length t then invalid_arg "Bitkey.drop";
  init (length t - n) (fun i -> get t (n + i))

let concat a b =
  let la = length a and lb = length b in
  init (la + lb) (fun i -> if i < la then get a i else get b (i - la))

let flip t i =
  if i < 0 || i >= length t then invalid_arg "Bitkey.flip";
  match t with
  | S { len; hi; lo } ->
    if i < 32 then S { len; hi = hi lxor (1 lsl (31 - i)); lo }
    else S { len; hi; lo = lo lxor (1 lsl (63 - i)) }
  | W { len; data } ->
    let data = Bytes.copy data in
    unsafe_set data i (not (get t i));
    W { len; data }

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

(* Leading zeros of a nonzero value's low 32 bits. *)
let clz32 x =
  let n = ref 0 and x = ref (x land 0xFFFFFFFF) in
  if !x land 0xFFFF0000 = 0 then begin
    n := !n + 16;
    x := !x lsl 16
  end;
  if !x land 0xFF000000 = 0 then begin
    n := !n + 8;
    x := !x lsl 8
  end;
  if !x land 0xF0000000 = 0 then begin
    n := !n + 4;
    x := !x lsl 4
  end;
  if !x land 0xC0000000 = 0 then begin
    n := !n + 2;
    x := !x lsl 2
  end;
  if !x land 0x80000000 = 0 then n := !n + 1;
  !n

let common_prefix_len a b =
  let n = min (length a) (length b) in
  match (a, b) with
  | S sa, S sb ->
    let xh = sa.hi lxor sb.hi and xl = sa.lo lxor sb.lo in
    let p = if xh <> 0 then clz32 xh else if xl <> 0 then 32 + clz32 xl else 64 in
    min p n
  | _ ->
    let nb = bytes_for_bits n in
    let rec go k =
      if k >= nb then n
      else
        let x = byte_at a k lxor byte_at b k in
        if x = 0 then go (k + 1) else min n ((8 * k) + (clz32 x - 24))
    in
    go 0

let is_prefix ~prefix t =
  length prefix <= length t && common_prefix_len prefix t = length prefix

let compare a b =
  match (a, b) with
  | S sa, S sb ->
    (* Packed words are nonnegative ints < 2^32, so int comparison equals
       lexicographic bit comparison; trailing zeros make the shared
       suffix neutral, and equal patterns fall back to length (a proper
       prefix sorts before its extensions). *)
    let c = Stdlib.compare sa.hi sb.hi in
    if c <> 0 then c
    else
      let c = Stdlib.compare sa.lo sb.lo in
      if c <> 0 then c else Stdlib.compare sa.len sb.len
  | _ ->
    let la = length a and lb = length b in
    let nb = bytes_for_bits (min la lb) in
    let rec go k =
      if k >= nb then Stdlib.compare la lb
      else
        let c = Stdlib.compare (byte_at a k) (byte_at b k) in
        if c <> 0 then c else go (k + 1)
    in
    go 0

let equal a b =
  match (a, b) with
  | S sa, S sb -> sa.len = sb.len && sa.hi = sb.hi && sa.lo = sb.lo
  | W wa, W wb -> wa.len = wb.len && Bytes.equal wa.data wb.data
  | _ -> false (* normalization: representations never share a length *)

let hash t =
  match t with
  | S { len; hi; lo } -> Hashtbl.hash (len, hi, lo)
  | W { len; data } -> Hashtbl.hash (len, Bytes.to_string data)

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)

let of_string s =
  let len = String.length s in
  String.iter
    (function '0' | '1' -> () | _ -> invalid_arg "Bitkey.of_string: expected only '0'/'1'")
    s;
  init len (fun i -> s.[i] = '1')

let to_string t = String.init (length t) (fun i -> if get t i then '1' else '0')

let pp fmt t = Format.fprintf fmt "%s" (to_string t)

let of_int64 ~width x =
  if width < 0 || width > 64 then invalid_arg "Bitkey.of_int64: width";
  let hi = Int64.to_int (Int64.shift_right_logical x 32) in
  let lo = Int64.to_int (Int64.logand x 0xFFFFFFFFL) in
  if width <= 32 then S { len = width; hi = hi land mask_top width; lo = 0 }
  else S { len = width; hi; lo = lo land mask_top (width - 32) }

let to_int64 t =
  if length t > 64 then invalid_arg "Bitkey.to_int64: too long";
  match t with
  | S { hi; lo; _ } -> Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
  | W _ -> assert false (* normalization: len <= 64 is always S *)

let successor t =
  (* Find the last zero bit, set it, clear everything after. *)
  let len = length t in
  let rec last_zero i = if i < 0 then None else if get t i then last_zero (i - 1) else Some i in
  match last_zero (len - 1) with
  | None -> None
  | Some i -> Some (init len (fun j -> if j < i then get t j else j = i))

let of_bytes_prefix s ~width =
  if width < 0 then invalid_arg "Bitkey.of_bytes_prefix: width";
  if width <= 64 then begin
    (* Pack up to 8 source bytes straight into the two halves. *)
    let byte k = if k < String.length s then Char.code s.[k] else 0 in
    let word a =
      (byte a lsl 24) lor (byte (a + 1) lsl 16) lor (byte (a + 2) lsl 8) lor byte (a + 3)
    in
    let hi = word 0 and lo = word 4 in
    if width <= 32 then S { len = width; hi = hi land mask_top width; lo = 0 }
    else S { len = width; hi; lo = lo land mask_top (width - 32) }
  end
  else begin
    let data = make_zeroed width in
    let avail = String.length s * 8 in
    (* [n] is a multiple of 8 whenever the source is shorter than [width]
       (strings hold whole bytes), so only truncation can leave stray bits
       in the last byte; they are cleared below. *)
    let n = min width avail in
    Bytes.blit_string s 0 data 0 (bytes_for_bits n);
    let rem_w = width mod 8 in
    if rem_w <> 0 then begin
      let last = bytes_for_bits width - 1 in
      let keep = 0xFF lxor (0xFF lsr rem_w) in
      Bytes.set data last (Char.chr (Char.code (Bytes.get data last) land keep))
    end;
    W { len = width; data }
  end

let random rng n = init n (fun _ -> Rng.bool rng ~p:0.5)

let pad t ~width b =
  let len = length t in
  if len >= width then t else init width (fun i -> if i < len then get t i else b)

let enumerate n =
  if n < 0 || n > 20 then invalid_arg "Bitkey.enumerate: n out of range";
  let count = 1 lsl n in
  List.init count (fun v -> S { len = n; hi = (v lsl (32 - n)) land 0xFFFFFFFF; lo = 0 })
