(** Deterministic pseudo-random number generator.

    A small, fast, splittable PRNG (splitmix64) used everywhere in the
    simulator so that every experiment is reproducible from a single seed.
    Not cryptographic. *)

type t

(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)
val create : int -> t

(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each subsystem its own stream so that adding draws in one
    subsystem does not perturb another. *)
val split : t -> t

(** [copy t] duplicates the current state (same future stream). *)
val copy : t -> t

(** Next raw 64 bits. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)
val int_in : t -> int -> int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

(** [float_in t lo hi] is uniform in [lo, hi). *)
val float_in : t -> float -> float -> float

(** [bool t ~p] is [true] with probability [p]. *)
val bool : t -> p:float -> bool

(** [pick t arr] is a uniform element of [arr]. Raises on empty array. *)
val pick : t -> 'a array -> 'a

(** [pick_list t l] is a uniform element of [l]. Raises on empty list. *)
val pick_list : t -> 'a list -> 'a

(** [sample t k l] draws [min k (List.length l)] distinct elements of [l]
    uniformly (reservoir sampling); order is unspecified. *)
val sample : t -> int -> 'a list -> 'a list

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** Exponentially distributed with the given mean. *)
val exponential : t -> mean:float -> float

(** Standard normal (Box-Muller). *)
val gaussian : t -> float

(** Log-normal: [exp (mu + sigma * gaussian)]. *)
val lognormal : t -> mu:float -> sigma:float -> float
