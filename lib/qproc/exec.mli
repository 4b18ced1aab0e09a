(** Plan execution.

    Two strategies, compared by experiments E8/E9:

    - {!run_centralized}: the query origin evaluates every step itself,
      pulling index regions / issuing bind-join lookups and joining
      locally. Simple, but every intermediate result crosses the network
      back to the origin.

    - {!run_mutant}: Mutant-Query-Plan-style adaptive execution. The plan
      (with the bindings accumulated so far) travels to a peer responsible
      for the next pattern's index region; at each carrier the remainder
      of the plan is {e re-optimized} with the observed intermediate
      cardinality before the next step is chosen. A hop carries each row
      cut down to the variables the rest of the plan still reads (all of
      them under [SELECT *]). The last carrier post-processes, so only
      the answer ships back to the origin.

    Both are continuation-passing and share one step runner. A scan
    step joined to the rows so far sends its scan a semi-join filter of
    their join keys ({!Unistore_triple.Tstore.semijoin}) wherever no
    result cache keeps the scan's answer: at a mutant carrier away from
    the origin, or at an origin without a cache. It sends none when the
    rows' distinct join keys reach what the plan's statistics say the
    scanned column holds (its distinct values, or its triples for a
    subject filter): such a filter could drop nothing. The rows and
    their order are those of the unfiltered scan.

    A centralized plan starts every access that reads no earlier row at
    plan start, all in the query's first event: the first step's and
    each unfiltered scan's. Identical accesses ({!Cost.access_key})
    start once and share their answer. The steps still join in plan
    order, so rows and row order are those of one step after another.
    Overlapping steps share the global message counter, so a step's
    [messages] are those sent since the step before it was recorded,
    whichever access sent them; charging each message to the access
    that caused it, by correlation id, is ROADMAP item 3. A query's
    state (coverage so far, traces, shipped bytes) lives in a per-query
    record, so any number of plans can execute at once in one simulator.
    Each entry point calls [k] exactly once. A mutant carrier hop is one
    more continuation: it resumes at the new carrier on arrival, or at
    the old one (and the result turns partial) after the overlay's
    request timeout when the task was lost. *)

module Ast = Unistore_vql.Ast
module Tstore = Unistore_triple.Tstore

(** One executed physical step, as observed — the raw material of both
    adaptive re-optimization (§2: observed intermediate results steer
    the remaining plan) and the user-facing
    {!Unistore_obs.Profile} built by {!Engine.profile}. *)
type step_trace = {
  step : Physical.step;
  rows_in : int;  (** bindings flowing into the step *)
  actual_card : int;  (** bindings after the step *)
  messages : int;
      (** global messages sent since the previous step was recorded
          (since the query started, for the first): the steps sum to
          the query's [messages] when it runs alone, but a step started
          at plan start does not own all of its share *)
  latency : float;
      (** simulated ms from the issue of the step's access (its probe
          round, for a bind-join) to its answer *)
  carrier : int;  (** peer that executed it *)
  shipped : int;
      (** bytes of the carrier hop that brought the plan to [carrier]
          for this step; 0 when the step ran where the previous one did,
          and always 0 under centralized execution *)
  at_start : bool;
      (** the step's access was issued when the plan started, together
          with those of the steps before it *)
}

val pp_step_trace : Format.formatter -> step_trace -> unit

type run_result = {
  rows : Binding.t list;  (** final rows (after ranking/projection/limit) *)
  messages : int;  (** global messages sent while the query ran *)
  latency : float;  (** simulated ms *)
  complete : bool;
  completeness : float;
      (** coverage estimate in [0,1]: the minimum coverage over every
          executed step (regions reached / regions addressed, from
          {!Unistore_triple.Dht.result}); [1.0] iff every access saw
          every region it addressed *)
  traces : step_trace list;
  bytes_shipped : int;
      (** bytes of every carrier hop: a hop towards the data carries the
          plan (a flat 256 B) and the rows so far, the trip home the
          answer rows and 32 B; rows are sized by {!rows_bytes} *)
}

(** [rows_bytes rows] is the bytes a carrier hop spends on [rows]: the
    length of their coding as one batch
    ({!Unistore_pgrid.Wire.rows_bytes}, each value by
    {!Unistore_triple.Value.encode}). Raises [Invalid_argument] if the
    rows bind different variables: the coding has no size for them. *)
val rows_bytes : Binding.t list -> int

(** [postprocess plan rows] applies a plan's post-join stages (residual
    filters, order/skyline, projection, distinct, limit). Exposed for the
    engine's UNION combination step. *)
val postprocess : Physical.t -> Binding.t list -> Binding.t list

(** [hash_join left right] joins two row lists over one schema on the
    variables both sides bind: left rows in order, each followed by its
    matching right rows newest first. Exposed for the micro kernels. *)
val hash_join : Binding.t list -> Binding.t list -> Binding.t list

(** [run_centralized ?cache ts stats ~origin plan ~k] executes a static
    plan at the origin, with every access that reads no earlier row
    started at plan start; [stats] are the statistics it was planned
    with. With [cache], complete bulk-access answers and bind-join
    per-key probes are served from / stored into the origin's result
    cache ({!Qcache}); partial (timed-out) results are never cached. *)
val run_centralized :
  ?cache:Qcache.t ->
  Tstore.t ->
  Qstats.t ->
  origin:int ->
  Physical.t ->
  k:(run_result -> unit) ->
  unit

(** [run_mutant ?cache ts stats env ~origin query ~expansions ~k] plans the
    first step statically, then adapts, shipping the plan between
    carriers with [Dht.send_task]. [cache] is the {e origin's} result
    cache: steps executed while the plan is away at another carrier
    bypass it. *)
val run_mutant :
  ?cache:Qcache.t ->
  Tstore.t ->
  Qstats.t ->
  Cost.env ->
  origin:int ->
  Ast.query ->
  expansions:(string * string list) list ->
  k:(run_result -> unit) ->
  unit

(** [skyline_pushdown_shape q] recognizes the in-network skyline shape:
    every pattern binds a distinct constant attribute of one shared
    subject variable to a distinct object variable, no filters or UNION
    branches, and [SKYLINE OF] over (a subset of) those object
    variables. Returns [(goals, subject var, (attr, object var) list)]
    in pattern order. *)
val skyline_pushdown_shape :
  Ast.query -> ((string * Ast.goal) list * string * (string * string) list) option

(** [run_skyline_pushdown ts ~scan ~origin q ~goals ~subj ~av ~k]
    evaluates a query matching {!skyline_pushdown_shape} with [scan], the
    leaf-reduced scan of the OID region that
    {!Unistore_triple.Tstore.oid_scan_reduce} offers [ts]: each
    peer drops tuples that cannot join (missing attributes) and complete
    single-valued tuples dominated by a co-located tuple, so most
    dominated rows never cross the network; the origin re-runs the exact
    skyline over the survivors. Sound because all triples of one tuple
    share a single OID key and are therefore collocated. Returns the
    synthetic plan (for EXPLAIN) alongside the result. *)
val run_skyline_pushdown :
  Tstore.t ->
  scan:Tstore.oid_scan ->
  origin:int ->
  Ast.query ->
  goals:(string * Ast.goal) list ->
  subj:string ->
  av:(string * string) list ->
  k:(Physical.t * run_result -> unit) ->
  unit
