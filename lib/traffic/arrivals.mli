(** Open-loop arrival processes: inter-arrival gaps independent of
    completions. *)

(** [gap rng ~rate_per_ms] draws the milliseconds until the next
    arrival of a Poisson process: an exponential gap of mean
    [1 / rate_per_ms], memoryless and bursty, from exactly one RNG
    draw. Raises [Invalid_argument] on non-positive rate. *)
val gap : Unistore_util.Rng.t -> rate_per_ms:float -> float
