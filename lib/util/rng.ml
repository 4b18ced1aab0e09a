type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let b = Int64.of_int bound in
  let rec draw () =
    let r = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem r b in
    if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int b) 1L then draw ()
    else Int64.to_int v
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 uniform bits mapped to [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float_in t lo hi = lo +. ((hi -. lo) *. float t)

let bool t ~p = float t < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let sample t k l =
  match l with
  | [] -> []
  | first :: _ when k > 0 ->
    let reservoir = Array.make k first in
    let n = ref 0 in
    let add x =
      if !n < k then reservoir.(!n) <- x
      else begin
        let j = int t (!n + 1) in
        if j < k then reservoir.(j) <- x
      end;
      incr n
    in
    List.iter add l;
    Array.to_list (Array.sub reservoir 0 (min k !n))
  | _ :: _ -> []

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential t ~mean =
  let u = 1.0 -. float t in
  -.mean *. log u

let gaussian t =
  let rec nonzero () =
    let u = float t in
    if Float.equal u 0.0 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let lognormal t ~mu ~sigma = exp (mu +. (sigma *. gaussian t))
