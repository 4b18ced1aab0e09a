(** Gossiped statistics cache (level 3 of the caching subsystem).

    The cost-based optimizer needs per-attribute data statistics, but in
    a running deployment no peer holds the full dataset. Instead, each
    responsible peer periodically {e samples} its local A#v store into
    per-attribute {!summary} records; every origin merges what it hears
    and aggregates the partial summaries into global per-attribute
    statistics.

    Summaries are keyed by (attribute, region): replicas of one leaf
    region produce interchangeable summaries for it, so keying by the
    region's lower bound deduplicates them instead of double counting.
    Per-region counts and distinct-value counts sum exactly across
    regions, because the A#v encoding places all items of one
    (attribute, value) pair under a single key, hence inside a single
    region.

    The cache keeps each summary split in two: its {e content} (count,
    distinct values, bounds, string flag and version) per (attribute,
    region), and one {e stamp} per region (sampling peer, version,
    sampling time and load). Between writes only the stamps change, so
    gossip exchanges a {!digest} of stamps every round and moves content
    only for the regions a receiver lacks ({!apply_digest}).

    Freshness: versions are the sampling peer's write epoch (merged
    newest-wins), and aggregation decays each summary by its region's
    sampling time, so a silent peer's stale summary gradually loses
    weight instead of anchoring the estimate forever. The per-attribute
    sum of versions also serves as the invalidation version for the
    result cache: any write observed anywhere bumps it. *)

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

(** Held (attribute, region) summaries. *)
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

(** [merge t s] adopts [s]'s content if it is fresher than the content
    held for the same (attribute, region): a higher version, or the same
    version sampled after the region's stamp. The region is re-stamped
    from [s] when [s] is a later sample than its stamp; the stamp keeps
    a halving memory of a displaced higher load. Statistics gossip
    relays only [News] onward, so a network whose data is unchanged
    stops relaying. *)
val merge : t -> summary -> merged

(** One region's stamp as gossiped: [d_attrs] is the number of
    attributes the sender holds for the region. *)
type digest_entry = {
  d_region : string;  (** region lower bound *)
  d_peer : int;
  d_version : int;
  d_attrs : int;
  d_sampled_at : float;
  d_load : int;
}

(** Estimated gossip wire size of one digest entry. *)
val digest_entry_bytes : digest_entry -> int

(** One entry per held region, sorted by region lower bound. Costs
    O(regions), whatever the number of attributes. *)
val digest : t -> digest_entry list

(** [apply_digest t e] re-stamps [e]'s region when [e] is a later sample
    at the version held (with {!merge}'s halving memory of a hot load),
    and is [true] when [t] lacks content the sender holds: the region is
    unknown, has fewer attributes, or holds a lower version. The caller
    then pulls those regions' {!summaries_of} from the sender; merging
    them leaves [t] as merging all the sender's summaries would. One
    hash lookup. *)
val apply_digest : t -> digest_entry -> bool

(** All held summaries, sorted by (region, attribute) — a deterministic
    order, because these travel verbatim inside [StatGossip] payloads. *)
val summaries : t -> summary list

(** The held summaries of the given regions (unknown ones contribute
    nothing), region by region in the order given, each by attribute. *)
val summaries_of : t -> string list -> summary list

(** [aggregate t ~now ~half_life_ms] folds the held summaries into
    per-attribute aggregates, weighting each summary's count by
    [0.5 ** (age / half_life_ms)], its age being its region stamp's
    ([half_life_ms <= 0] disables decay). Sorted by attribute name. *)
val aggregate : t -> now:float -> half_life_ms:float -> (string * agg) list

(** [region_loads t] is the per-region served-request load as gossiped,
    read from the region stamps. Sorted by region lower bound. *)
val region_loads : t -> (string * int) list

(** [attr_version t a] is the sum of held summary versions for [a] —
    the result cache's invalidation version for attribute-specific
    accesses (it moves whenever any region reports a write). *)
val attr_version : t -> string -> int

(** Sum of all held versions: the invalidation version for accesses not
    tied to one attribute. *)
val total_version : t -> int
