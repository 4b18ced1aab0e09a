(** Query engine: parse → optimize → execute → report.

    The top of the query-processing stack; {!Unistore.Unistore} (the
    public facade) wraps this. The engine never drives the simulator:
    {!start} and {!explain} call [k] exactly once, from inside the event
    that finishes the query, so many queries can be in flight at once.
    The facade waits for one with {!Unistore_sim.Sim.await}. *)

module Ast = Unistore_vql.Ast
module Tstore = Unistore_triple.Tstore

type strategy =
  | Centralized  (** the origin pulls everything and joins locally *)
  | Mutant  (** adaptive plan shipping (Mutant Query Plans) *)

val pp_strategy : Format.formatter -> strategy -> unit

type report = {
  columns : string list;
  rows : Binding.t list;
  messages : int;
      (** delta of the deployment's global message counter over the
          query's lifetime, like every step's [messages] in [traces]:
          exact only when the query runs alone, since messages of other
          queries in flight are counted too *)
  latency : float;  (** simulated ms *)
  complete : bool;
  completeness : float;
      (** coverage estimate in [0,1] — the minimum over every executed
          step and UNION branch; rendered as "PARTIAL (N%% coverage)" by
          {!pp_table} when [complete] is false *)
  plan : Physical.t;
  strategy : strategy;
  traces : Exec.step_trace list;
  bytes_shipped : int;
}

(** Render rows as an aligned text table (the CLI's result view). *)
val pp_table : Format.formatter -> report -> unit

(** [explain ts stats ~replication ?cache ?expand_mappings ~origin q ~k]
    builds the static physical plan (the EXPLAIN view). When
    [expand_mappings] is set, schema correspondences are fetched from
    the store first and constant attributes are expanded to their
    equivalence classes; otherwise [k] is called at once. *)
val explain :
  Tstore.t ->
  Qstats.t ->
  replication:int ->
  ?cache:Qcache.t ->
  ?expand_mappings:bool ->
  origin:int ->
  Ast.query ->
  k:(Physical.t -> unit) ->
  unit

(** [start ts stats ~replication ?strategy ?expand_mappings ~origin q ~k]
    executes a parsed query and passes its report to [k]. It shares its
    planning with {!explain}. Default strategy: [Centralized]. With [cache] the
    optimizer biases plans toward already-cached accesses and the
    executor serves/fills the origin's result cache ({!Qcache}). *)
val start :
  Tstore.t ->
  Qstats.t ->
  replication:int ->
  ?cache:Qcache.t ->
  ?strategy:strategy ->
  ?expand_mappings:bool ->
  origin:int ->
  Ast.query ->
  k:(report -> unit) ->
  unit

(** [catalog_of_stats stats] derives the static analyzer's attribute
    catalog from collected statistics. *)
val catalog_of_stats : Qstats.t -> Unistore_analysis.Catalog.t

(** [analyze stats q] runs the {!Unistore_analysis.Semantic} analyzer
    against the catalog derived from [stats]. *)
val analyze : Qstats.t -> Ast.query -> Unistore_analysis.Diagnostic.t list

(** [parse_checked stats src] parses VQL source and passes it through
    the static analyzer ({!analyze}); error-severity diagnostics refuse
    the plan and are rendered into [Error]. This is the one validation
    of a query text: [Unistore_vql.Parser.parse] checks syntax only, so
    {!start} and {!explain} trust their AST. *)
val parse_checked : Qstats.t -> string -> (Ast.query, string) result

(** [profile ?query r] reshapes a report's execution traces into the
    per-operator profile of the observability layer (rows in/out,
    messages, simulated latency per executed step — the EXPLAIN ANALYZE
    view). [query] is attached verbatim when given. *)
val profile : ?query:string -> report -> Unistore_obs.Profile.t
