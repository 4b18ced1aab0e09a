(** Data statistics for the cost model.

    The paper bases cost predictions "on the characteristics of the used
    overlay system and the actual data distribution" (§2). This module
    holds the per-attribute distribution summaries: triple counts,
    distinct values, value bounds — enough to estimate selectivities of
    the access paths in {!Cost}. *)

module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple

type attr_stats = {
  count : int;  (** triples with this attribute *)
  distinct : int;  (** distinct values *)
  lo : Value.t option;  (** min value (per dominant type) *)
  hi : Value.t option;
  string_valued : bool;
}

type t = {
  total_triples : int;
  distinct_oids : int;
  attrs : (string * attr_stats) list;
}

val empty : t
val attr : t -> string -> attr_stats option
val pp : Format.formatter -> t -> unit

(** [of_triples ts] computes exact statistics from a dataset in hand (the
    oracle path used when the inserting site keeps a catalog). *)
val of_triples : Triple.t list -> t

(** [of_summaries per_attr] reconstructs statistics from the aggregated
    gossiped summaries of the statistics cache
    ({!Unistore_cache.Statcache.aggregate}) — the decentralized
    replacement for the {!of_triples} oracle: counts,
    distinct values and (decoded) value bounds come straight from the
    per-region samples; [distinct_oids] is estimated as the largest
    per-attribute count (exact when every object carries an attribute at
    most once, a lower bound otherwise). *)
val of_summaries : (string * Unistore_cache.Statcache.agg) list -> t

(** {2 Selectivity estimation} *)

(** Estimated triples matching [attr = v]. *)
val est_eq : t -> string -> float

(** Estimated triples with [attr] in [[lo, hi]] (linear interpolation on
    numeric domains; fraction of distinct values otherwise). *)
val est_range : t -> string -> Value.t option -> Value.t option -> float

(** Estimated triples with attribute [attr]. *)
val est_attr : t -> string -> float

(** Estimated triples carrying value [v] on any attribute. *)
val est_value : t -> float

(** Estimated matches of an edit-distance predicate (heuristic: a couple
    of near-duplicates per distinct value). *)
val est_sim : t -> string option -> float
