type t = { n : int; cdf : float array }

let create ~n ~s =
  if n < 1 then invalid_arg "Zipf.create: n < 1";
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  { n; cdf }

let n t = t.n

let sample t rng =
  let u = Rng.float rng in
  (* First index with cdf >= u. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo + 1

let probability t rank =
  if rank < 1 || rank > t.n then invalid_arg "Zipf.probability: rank out of range";
  if rank = 1 then t.cdf.(0) else t.cdf.(rank - 1) -. t.cdf.(rank - 2)
