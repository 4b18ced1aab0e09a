module Rng = Unistore_util.Rng

(* Arrival processes. Open-loop: the gap to the next arrival never
   depends on completions, so offered load keeps coming whether or not
   the system keeps up — the regime where queueing delay shows. *)

(* Milliseconds until the next arrival at instantaneous [rate_per_ms]:
   a Poisson process, one RNG sample per gap. *)
let gap rng ~rate_per_ms =
  if rate_per_ms <= 0.0 then invalid_arg "Arrivals.gap: rate must be positive";
  Rng.exponential rng ~mean:(1.0 /. rate_per_ms)
