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

    Both are continuation-passing and share one step runner. A query's
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
      (** global messages sent while the step ran: exact only when its
          query runs alone *)
  latency : float;  (** simulated ms spent in the step *)
  carrier : int;  (** peer that executed it *)
  shipped : int;
      (** bytes of the carrier hop that brought the plan to [carrier]
          for this step; 0 when the step ran where the previous one did,
          and always 0 under centralized execution *)
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
  bytes_shipped : int;  (** plan/binding bytes moved between carriers *)
}

(** [postprocess plan rows] applies a plan's post-join stages (residual
    filters, order/skyline, projection, distinct, limit). Exposed for the
    engine's UNION combination step. *)
val postprocess : Physical.t -> Binding.t list -> Binding.t list

(** [hash_join left right] joins two row lists over one schema on the
    variables both sides bind: left rows in order, each followed by its
    matching right rows newest first. Exposed for the micro kernels. *)
val hash_join : Binding.t list -> Binding.t list -> Binding.t list

(** [run_centralized ?cache ts ~origin plan ~k] executes a static plan at
    the origin. With [cache], complete bulk-access answers and bind-join
    per-key probes are served from / stored into the origin's result
    cache ({!Qcache}); partial (timed-out) results are never cached. *)
val run_centralized :
  ?cache:Qcache.t -> Tstore.t -> origin:int -> Physical.t -> k:(run_result -> unit) -> unit

(** [run_mutant ?cache ts stats env ~origin query ~expansions ~k] plans the
    first step statically, then adapts. Requires the substrate to support
    plan shipping ([Dht.send_task]); raises [Invalid_argument] otherwise.
    [cache] is the {e origin's} result cache: steps executed while the
    plan is away at another carrier bypass it. *)
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
