(** Zipfian sampling.

    Used by the workload generators and the load-balancing experiments: the
    paper's P-Grid substrate claims to handle "nearly arbitrary data skews"
    via its load balancing, which we exercise with Zipf-distributed
    attribute values. *)

type t

(** [create ~n ~s] prepares a sampler over ranks [1..n] with exponent [s]
    ([s = 0] is uniform; larger [s] is more skewed). [n >= 1]. *)
val create : n:int -> s:float -> t

val n : t -> int

(** [sample t rng] draws a rank in [1..n]; rank 1 is the most frequent. *)
val sample : t -> Rng.t -> int

(** [probability t rank] is the probability mass of [rank]. *)
val probability : t -> int -> float
