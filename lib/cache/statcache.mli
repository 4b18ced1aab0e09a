(** Gossiped statistics cache (level 3 of the caching subsystem).

    The cost-based optimizer needs per-attribute data statistics, but in
    a running deployment no peer holds the full dataset. Instead, each
    responsible peer periodically {e samples} its local A#v store into
    per-attribute {!summary} records and epidemically gossips its whole
    statistics cache; every origin merges what it hears and aggregates
    the partial summaries into global per-attribute statistics.

    Summaries are keyed by (attribute, region): replicas of one leaf
    region produce interchangeable summaries for it, so keying by the
    region's lower bound deduplicates them instead of double counting.
    Per-region counts and distinct-value counts sum exactly across
    regions, because the A#v encoding places all items of one
    (attribute, value) pair under a single key, hence inside a single
    region.

    Freshness: each summary carries the sampling peer's write epoch
    ([version], merged newest-wins) and its sampling time; aggregation
    applies exponential decay by age, so a silent peer's stale summary
    gradually loses weight instead of anchoring the estimate forever.
    The per-attribute sum of versions also serves as the invalidation
    version for the result cache: any write observed anywhere bumps
    it. *)

type summary = {
  attr : string;
  region_lo : string;  (** lower bound of the sampling peer's region *)
  peer : int;  (** sampling peer (provenance) *)
  count : int;  (** triples with this attribute in the region *)
  distinct : int;  (** distinct values of it in the region *)
  lo : string;  (** encoded minimum value (see {!Unistore_triple.Value.encode}) *)
  hi : string;  (** encoded maximum value *)
  string_valued : bool;
  version : int;  (** sampling peer's write epoch *)
  sampled_at : float;  (** simulated ms *)
  load : int;
      (** request messages the sampling peer handled since its previous
          sample — the hot-spot detection signal for
          {!Unistore_pgrid.Balance} *)
}

(** Estimated gossip wire size of one summary. *)
val summary_bytes : summary -> int

(** Aggregated view of one attribute across all known regions. *)
type agg = {
  a_count : float;  (** decay-weighted triple count *)
  a_distinct : int;
  a_lo : string;  (** encoded bounds over all regions *)
  a_hi : string;
  a_string : bool;
  a_version : int;  (** sum of contributing summary versions *)
  a_regions : int;  (** summaries merged into this aggregate *)
}

type t

(** A fresh cache allocates no table of its own until its first
    {!merge}: most peers never hear a summary. *)
val create : unit -> t

val length : t -> int

(** Drops every summary and the cache's table with them. *)
val clear : t -> unit

(** What {!merge} did with a summary. *)
type merged =
  | Kept  (** the held summary is at least as fresh: the cache is unchanged *)
  | Resampled
      (** adopted a later sample at the held version: only [sampled_at]
          and [load] can have moved, so this is no news to relay *)
  | News  (** the (attribute, region) was unknown, or its version rose *)

(** [merge t s] adopts [s] if it is fresher than the summary held for
    the same (attribute, region): a higher version, or the same version
    sampled later. Statistics gossip relays only [News] onward, so a
    network whose data is unchanged stops relaying. *)
val merge : t -> summary -> merged

(** All held summaries, sorted by (attribute, region) — a deterministic
    order, because these travel verbatim inside [StatGossip] payloads. *)
val summaries : t -> summary list

(** [aggregate t ~now ~half_life_ms] folds the held summaries into
    per-attribute aggregates, weighting each summary's count by
    [0.5 ** (age / half_life_ms)] ([half_life_ms <= 0] disables decay).
    Sorted by attribute name. *)
val aggregate : t -> now:float -> half_life_ms:float -> (string * agg) list

(** [region_loads t] is the per-region served-request load as gossiped:
    the max over each region's attribute summaries (every summary
    carries its sampling peer's whole per-round delta). Sorted by
    region lower bound. *)
val region_loads : t -> (string * int) list

(** [attr_version t a] is the sum of held summary versions for [a] —
    the result cache's invalidation version for attribute-specific
    accesses (it moves whenever any region reports a write). *)
val attr_version : t -> string -> int

(** Sum of all held versions: the invalidation version for accesses not
    tied to one attribute. *)
val total_version : t -> int
