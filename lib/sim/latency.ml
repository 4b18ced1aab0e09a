module Rng = Unistore_util.Rng

type model = Constant of float | Uniform of float * float | Lan | Planetlab

type t = { model : model; rng : Rng.t; coords : (float * float) array }

let create model ~n ~rng =
  let rng = Rng.split rng in
  let coords =
    match model with
    | Planetlab -> Array.init (max n 1) (fun _ -> (Rng.float rng, Rng.float rng))
    | Constant _ | Uniform _ | Lan -> [||]
  in
  { model; rng; coords }

let planetlab_base t ~src ~dst =
  let coord i = t.coords.(i mod Array.length t.coords) in
  let x1, y1 = coord src and x2, y2 = coord dst in
  let d = sqrt (((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0)) in
  (* unit-square diagonal ~ transcontinental: 20ms floor + up to ~200ms. *)
  20.0 +. (d *. 140.0)

let sample t ~src ~dst =
  match t.model with
  | Constant d -> d
  | Uniform (lo, hi) -> Rng.float_in t.rng lo hi
  | Lan -> 0.5 +. Rng.float_in t.rng 0.0 1.5
  | Planetlab ->
    let base = planetlab_base t ~src ~dst in
    (* Log-normal jitter, median 1x, occasional 3-5x spikes. *)
    let jitter = Rng.lognormal t.rng ~mu:0.0 ~sigma:0.35 in
    base *. jitter

let base t ~src ~dst =
  match t.model with
  | Constant d -> d
  | Uniform (lo, hi) -> (lo +. hi) /. 2.0
  | Lan -> 1.25
  | Planetlab -> planetlab_base t ~src ~dst

let expected t =
  match t.model with
  | Constant d -> d
  | Uniform (lo, hi) -> (lo +. hi) /. 2.0
  | Lan -> 1.25
  | Planetlab ->
    (* Mean pair distance on the unit square is ~0.5214; lognormal mean is
       exp(sigma^2/2). *)
    (20.0 +. (0.5214 *. 140.0)) *. exp (0.35 *. 0.35 /. 2.0)

let model t = t.model
