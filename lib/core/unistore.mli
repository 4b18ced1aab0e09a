(** UniStore: a DHT-based universal storage — the public facade.

    One value of type {!t} is a whole simulated deployment: a structured
    overlay (P-Grid by default, Chord+trie as baseline) of [peers]
    simulated nodes, the triple storage layer with its three-way
    indexing, and the VQL query processor with cost-based adaptive
    optimization.

    {[
      let store =
        Unistore.create { Unistore.default_config with peers = 64 }
      in
      ignore (Unistore.insert_tuple store ~oid:"a1"
                [ ("name", Value.S "alice"); ("age", Value.I 30) ]);
      Unistore.refresh_stats store;
      match Unistore.query store "SELECT ?n WHERE { (?a,'name',?n) }" with
      | Ok report -> Format.printf "%a@." Unistore.pp_table report
      | Error e -> prerr_endline e
    ]} *)

module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple
module Report = Unistore_qproc.Engine

type overlay_kind =
  | Pgrid  (** the paper's substrate: order-preserving trie overlay *)
  | Chord_trie  (** baseline: Chord ring + DHT-hosted trie for ranges *)

(** Knobs of the multi-level caching subsystem ([unistore.cache]):
    per-peer routing-shortcut slots (level 1), the query origin's result
    cache (level 2) and the decay applied when aggregating gossiped
    statistics (level 3). Zero capacities disable a level; {!no_cache}
    disables everything (the uncached baseline of the E-cache
    benchmark). *)
type cache_config = {
  shortcut_capacity : int;  (** routing shortcuts per peer; 0 disables *)
  result_capacity : int;  (** entries per result cache; 0 disables *)
  result_ttl_ms : float;  (** result-cache TTL safety net *)
  stats_half_life_ms : float;
      (** age at which a gossiped summary's weight halves; <= 0 disables
          decay *)
}

val default_cache_config : cache_config
val no_cache : cache_config

type config = {
  peers : int;
  replication : int;
  refs_per_level : int;
  seed : int;
  latency : Unistore_sim.Latency.model;
  drop : float;  (** iid message-loss probability *)
  overlay : overlay_kind;
  qgram_index : bool;  (** maintain the string-similarity index *)
  load_balanced : bool;  (** P-Grid data-aware partitioning (needs sample) *)
  cache : cache_config;
  store : Unistore_pgrid.Store_intf.backend;
      (** per-peer storage backend (P-Grid only; the Chord baseline
          ignores it): [Hash] (default), [Packed] (dictionary-
          compressed), or [Log { dir }] (file-backed, crash-restart
          capable — see {!Unistore_pgrid.Overlay.crash}) *)
}

val default_config : config

type t

(** [create ?sample_keys config] builds a fresh deployment. For a
    load-balanced P-Grid overlay, pass the (encoded) keys of the data you
    are about to insert — e.g. [Publications.sample_keys ds] — so the
    trie can be shaped to the distribution (the converged state of
    P-Grid's load balancing). *)
val create : ?sample_keys:string list -> config -> t

val config : t -> config
val sim : t -> Unistore_sim.Sim.t
val tstore : t -> Unistore_triple.Tstore.t
val dht : t -> Unistore_triple.Dht.t

(** The P-Grid overlay handle, when [overlay = Pgrid]. *)
val pgrid : t -> Unistore_pgrid.Overlay.t option

(** {2 Loading data} *)

(** [insert_triple t tr] returns [true] if all index entries stored. *)
val insert_triple : t -> ?origin:int -> Triple.t -> bool

(** [insert_tuple t ~oid fields] returns the number of triples stored. *)
val insert_tuple : t -> ?origin:int -> oid:string -> (string * Value.t) list -> int

(** [delete_triple t tr] removes a triple and all its index entries.
    (Deletes are not tombstoned — see {!Unistore_triple.Tstore}.) *)
val delete_triple : t -> ?origin:int -> Triple.t -> bool

(** [update_value t ~oid ~attr ~old_value v] replaces one field of a
    logical tuple (delete + re-insert, since index keys embed values). *)
val update_value :
  t -> ?origin:int -> oid:string -> attr:string -> old_value:Value.t -> Value.t -> bool

(** [load t tuples] inserts tuples from round-robin origins (as if each
    participant contributed its own data); returns triples stored. On
    P-Grid each origin's triples travel as one batched insert
    ({!Unistore_triple.Tstore.insert_bulk}); per-triple insertion is the
    fallback on Chord or when a batch stays incomplete. *)
val load : t -> (string * (string * Value.t) list) list -> int

(** [add_mapping t a b] publishes an attribute correspondence. *)
val add_mapping : t -> ?origin:int -> string -> string -> bool

(** {2 Statistics} — the cost model's input. [refresh_stats] floods the
    network once (decentralized collection); [set_stats_of_triples] is
    the zero-cost oracle variant when the dataset is known. *)

val refresh_stats : t -> unit
val set_stats_of_triples : t -> Triple.t list -> unit
val stats : t -> Unistore_qproc.Qstats.t

(** {2 Gossiped statistics} — the decentralized replacement for the two
    collectors above. Responsible peers sample their local stores into
    per-attribute summaries which spread epidemically; each round is one
    {!Unistore_pgrid.Gossip.stats_round} (P-Grid only, driven to
    completion). Once summaries have arrived, {!query} and {!explain}
    plan from them instead of the facade-held statistics. *)

(** One sampling + push round; no-op on substrates without statistics
    gossip (Chord). *)
val gossip_stats_round : t -> unit

(** [gossiped_stats t ~origin] aggregates the statistics cache gossip has
    built at [origin] (with age decay, see {!cache_config}); [None] while
    no summary has arrived there — callers fall back to {!stats}. *)
val gossiped_stats : t -> origin:int -> Unistore_qproc.Qstats.t option

(** [result_cache t ~origin] is that origin's result cache (caches are
    per query origin: a hit must mean {e this} client asked recently,
    not that any peer did), created on first use — exposed for tests and
    the CLI. [None] iff [cache.result_capacity = 0]. *)
val result_cache : t -> origin:int -> Unistore_qproc.Qcache.t option

(** {2 Querying} *)

type strategy = Unistore_qproc.Engine.strategy = Centralized | Mutant

(** [query t vql] parses, optimizes and executes a VQL query.
    [expand_mappings] rewrites constant attributes through published
    schema correspondences. Plans from gossiped statistics when
    available (see {!gossiped_stats}) and serves repeated accesses from
    the result cache (hit/miss counters land in {!metrics} under
    ["cache.result.*"] / ["cache.bind.*"]). *)
val query :
  t ->
  ?origin:int ->
  ?strategy:strategy ->
  ?expand_mappings:bool ->
  string ->
  (Unistore_qproc.Engine.report, string) result

(** The static physical plan, without executing (EXPLAIN). *)
val explain :
  t -> ?origin:int -> ?expand_mappings:bool -> string ->
  (Unistore_qproc.Physical.t, string) result

val pp_table : Format.formatter -> Unistore_qproc.Engine.report -> unit
val pp_plan : Format.formatter -> Unistore_qproc.Physical.t -> unit

(** {2 Operations & failure injection} *)

val kill_peers : t -> int list -> unit
val revive_peers : t -> int list -> unit
val alive_peers : t -> int list

(** [join_peer t ~id ~bootstrap] adds a brand-new peer to the running
    overlay by cloning [bootstrap] (P-Grid only; false on Chord or if the
    bootstrap peer is dead). *)
val join_peer : t -> id:int -> bootstrap:int -> bool

(** One anti-entropy round among replica groups (P-Grid only; no-op on
    Chord). *)
val anti_entropy_round : t -> unit

(** Deterministic, seeded fault scenarios ({!Unistore_sim.Faults}):
    churn waves, loss bursts, slow peers, partitions. *)
module Faults = Unistore_sim.Faults

type faults = Unistore_pgrid.Message.t Faults.t

(** [inject_faults t spec] schedules the scenario over the overlay
    network and returns the handle for inspecting what fired
    ([Faults.log], [render_log], [crashes], ...). [None] on Chord (the
    driver needs the P-Grid network handle). The scenario's randomness
    comes from [spec.seed] only, never from the deployment's RNG. *)
val inject_faults : t -> Faults.spec -> faults option

(** Self-healing maintenance ({!Unistore_pgrid.Repair}). *)
module Repair = Unistore_pgrid.Repair

(** [repair_round t] runs one repair round — re-point dead references,
    adopt strays, re-replicate depleted leaf groups from spare peers,
    drop stale shortcuts — and drives the resulting state transfers to
    completion. [None] on Chord. *)
val repair_round : t -> Repair.report option

(** [start_trace t] attaches a fresh message-level trace to the overlay
    network (P-Grid or Chord) and returns it; analyze with
    {!Unistore_sim.Trace.pp_summary}, [by_kind], [busiest_peers],
    [timeline], or lint it with {!lint_trace}. *)
val start_trace : t -> Unistore_sim.Trace.t

val stop_trace : t -> unit

(** {2 Metrics & profiling}

    Every deployment carries a {!Unistore_obs.Metrics} registry,
    attached to its network and overlay at creation: per-kind message
    counters ([net.sent.lookup], [net.bytes.sent.range],
    [net.bytes.delivered], ...), outcome
    counters, and per-operation hop/retry/latency/fan-out histograms
    ([overlay.lookup.hops], [overlay.range.fanout], ...). Unlike a
    trace it is always on; [reset_metrics] after loading to scope a
    measurement. *)

val metrics : t -> Unistore_obs.Metrics.t

(** Drop all recorded series (e.g. after bulk loading, before the
    measured phase). *)
val reset_metrics : t -> unit

(** Publish the storage gauges [store.bytes] / [store.items] /
    [store.log_bytes] (summed over alive peers, deterministic
    memory-model estimates) into the registry. No-op on the Chord
    baseline. Call before snapshotting metrics. *)
val refresh_store_gauges : t -> unit

(** The registry as an indented JSON document (the machine-readable
    export; [BENCH_core.json] is built from these). *)
val metrics_json : t -> string

(** [profile ?query report] is the per-operator execution profile of a
    query report: rows in/out, messages and simulated latency per
    executed step (EXPLAIN ANALYZE). Render with {!pp_profile} or
    export via {!Unistore_obs.Profile.to_json}. *)
val profile : ?query:string -> Unistore_qproc.Engine.report -> Unistore_obs.Profile.t

val pp_profile : Format.formatter -> Unistore_obs.Profile.t -> unit

(** [query_profiled t src] = {!query} plus the attached profile. *)
val query_profiled :
  t ->
  ?origin:int ->
  ?strategy:strategy ->
  ?expand_mappings:bool ->
  string ->
  (Unistore_qproc.Engine.report * Unistore_obs.Profile.t, string) result

(** Let background traffic (replication pushes, gossip) drain. *)
val settle : t -> unit

(** {2 Heavy-traffic engine}

    Open-loop load generation ({!Unistore_traffic}) against this
    deployment, with the per-peer service-queue model
    ({!Unistore_sim.Net.set_service}) and the adaptive response layer:
    per-peer EWMA retry deadlines ({!Unistore_pgrid.Rtt}), hot-region
    boost replication ({!Unistore_pgrid.Balance}) and serving-set
    rotation. The workload stream is seeded independently of the
    deployment, so an adaptive arm and a {!no_balancing} arm face a
    byte-identical request sequence. *)

module Traffic = Unistore_traffic.Engine
module Traffic_schedule = Unistore_traffic.Schedule
module Traffic_arrivals = Unistore_traffic.Arrivals
module Hotkeys = Unistore_traffic.Hotkeys
module Balance = Unistore_pgrid.Balance

type balance_config =
  | Adaptive
      (** per-peer EWMA retry deadlines, boost replicas for hot regions,
          and origins rotating across each region's serving set *)
  | Static  (** fixed deadlines, no boosts, single-target shortcuts *)

val default_balance_config : balance_config

(** The experimental baseline arm: fixed deadlines, no boosts, no
    rotation. *)
val no_balancing : balance_config

type traffic_scenario = Steady_load | Flash_crowd | Diurnal_load

type traffic_config = {
  scenario : traffic_scenario;
  poisson : bool;  (** exponential vs. fixed inter-arrival gaps *)
  arrival_rate : float;  (** base offered load, queries/s *)
  peak : float;  (** flash-crowd peak multiplier ([Flash_crowd] only) *)
  traffic_duration_ms : float;
  traffic_warmup_ms : float;  (** measurement window starts here *)
  traffic_zipf_s : float;  (** key popularity skew *)
  service_ms : float;  (** per-peer service time (enables queueing) *)
  traffic_seed : int;  (** workload stream seed *)
  balance_interval_ms : float;  (** gossip + balance cadence *)
  balance : balance_config;
}

val default_traffic_config : traffic_config

type traffic_report = {
  engine : Traffic.report;
  results_digest : string;
      (** MD5 over every measured (seq, key, sorted item ids/versions):
          equal digests across arms mean balancing changed performance,
          not answers *)
  retries : int;
  queue_msgs : int;  (** messages that passed a service queue *)
  queue_delayed : int;  (** of those, how many actually waited *)
  queue_p50_ms : float;  (** queueing-delay percentiles (window) *)
  queue_p99_ms : float;
  queue_max_ms : float;
  boosts_spawned : int;
  boosts_retired : int;
  hot_serves : int;  (** lookups answered by a boost replica *)
}

(** [run_traffic t ~keys cfg] drives one open-loop lookup workload over
    the key population [keys] (P-Grid only; load the data first). Runs
    the simulator to completion and reports measurement-window
    throughput, latency and queueing percentiles. Raises
    [Invalid_argument] on a Chord deployment or an empty key set. *)
val run_traffic : t -> keys:string list -> traffic_config -> traffic_report

(** Network messages sent since creation. *)
val messages_sent : t -> int

(** Simulated time (ms). *)
val now : t -> float

(** {2 Static analysis}

    The [unistore.analysis] layer surfaced through the facade: semantic
    query checking against the deployment's statistics, post-run trace
    linting and overlay invariant auditing. *)

module Diagnostic = Unistore_analysis.Diagnostic
module Semantic = Unistore_analysis.Semantic
module Tracelint = Unistore_analysis.Tracelint
module Audit = Unistore_analysis.Audit
module Srclint = Unistore_analysis.Srclint
module Protocol = Unistore_analysis.Protocol

(** [check t src] parses [src] and runs the semantic analyzer against
    the catalog derived from {!stats} (call {!refresh_stats} first for
    data-aware type checking). [Error] is a positioned parse error;
    [Ok] carries the diagnostics (possibly empty). *)
val check : t -> string -> (Diagnostic.t list, string) result

(** [audit t] runs the overlay invariant auditor
    ({!Unistore_analysis.Audit}) against the deployment's substrate. *)
val audit : t -> Diagnostic.t list

(** [lint_trace t tr] runs the trace linter with the substrate's rules.
    [against_metrics] additionally checks message-count conservation
    against the deployment's metrics registry — only sound if [tr] and
    the registry cover the same window (attach the trace right after
    {!reset_metrics}). *)
val lint_trace :
  t -> ?allowed_revisits:int -> ?against_metrics:bool -> Unistore_sim.Trace.t ->
  Diagnostic.t list

(** [lint_src paths] runs the source-level determinism and
    protocol-exhaustiveness linter ({!Srclint}) over the given files or
    directories — the library entry behind [make lint-src] and the
    [unistore-srclint] binary. *)
val lint_src : ?rules:Srclint.rule list -> string list -> Srclint.report list

(** {2 Read-staleness linting}

    [record_reads] starts logging every successful lookup (P-Grid only)
    as a {!Unistore_analysis.Tracelint.read_obs}; {!lint_reads} then
    replays the log through the monotone-reads check — a read returning
    a version older than one this client already observed means a cache
    (shortcut or result) served past its invalidation. *)

val record_reads : t -> unit
val stop_recording_reads : t -> unit
val read_log : t -> Tracelint.read_obs list
val lint_reads : t -> Diagnostic.t list
