(** Network latency models.

    The paper demonstrates UniStore on LAN test machines and on up to 400
    PlanetLab nodes. We substitute latency models: [Lan] for the local
    setup and [Planetlab] for the wide-area one. The PlanetLab model places
    each node at a uniform point of a unit square and charges a
    distance-proportional base delay plus log-normal jitter — the standard
    shape of measured PlanetLab RTT distributions (tens to hundreds of ms,
    heavy upper tail). *)

type model =
  | Constant of float  (** fixed one-way delay in ms *)
  | Uniform of float * float  (** uniform in [lo, hi) ms *)
  | Lan  (** 0.5-2 ms, mild jitter *)
  | Planetlab  (** wide-area: ~20-300 ms one-way, heavy tail *)

type t

(** [create model ~n ~rng] fixes per-node placement (for [Planetlab]) for
    peer identifiers [0 .. n-1]. Sampling draws jitter from [rng]. *)
val create : model -> n:int -> rng:Unistore_util.Rng.t -> t

(** [sample t ~src ~dst] is a one-way message delay in ms. *)
val sample : t -> src:int -> dst:int -> float

(** [base t ~src ~dst] is the deterministic (jitter-free) component of the
    delay between two peers — what a topology-aware routing strategy can
    learn and exploit. *)
val base : t -> src:int -> dst:int -> float

(** Expected one-way delay of the model, for the cost model's latency
    predictions. *)
val expected : t -> float

val model : t -> model
