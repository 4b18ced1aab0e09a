(** Open-loop traffic engine: a seeded arrival stream over the shared
    simulator clock. The offered workload (key, origin, instant of each
    request) depends only on the engine's own seed — never on how fast
    the system answers — so two system configurations driven with the
    same config face a byte-identical request sequence. *)

type config = {
  rate_per_s : float;  (** base offered load, queries per second; arrivals are Poisson *)
  schedule : Schedule.t;
  duration_ms : float;  (** arrival stream length *)
  warmup_ms : float;  (** requests issued before this are not measured *)
  seed : int;
  control_interval_ms : float;  (** cadence of the [control] hook; 0 disables *)
}

val default : config

(** What the system reports back for one completed request. *)
type completion = { ok : bool; items : int }

type report = {
  offered : int;
  measured : int;
  ok : int;
  served_in_window : int;
      (** ok completions that landed before the arrival stream ended —
          the numerator of [throughput_qps]; a backlogged system
          completes everything eventually, but late *)
  giveups : int;
  items : int;
  throughput_qps : float;
  lat_mean_ms : float;
  lat_p50_ms : float;
  lat_p90_ms : float;
  lat_p99_ms : float;
  lat_max_ms : float;
}

(** [run ~sim ~origins ~hotkeys ~issue cfg] schedules the arrival
    stream, drives [sim] until every request resolved, and reports
    measurement-window throughput and latency percentiles. Keys are
    drawn from [hotkeys], which carries the popularity skew. [issue] must
    start one asynchronous query and call [k] exactly once when it
    completes. [on_warmup] fires when the measurement window opens;
    [control ~now] fires every [control_interval_ms] while arrivals
    last. *)
val run :
  sim:Unistore_sim.Sim.t ->
  origins:int array ->
  hotkeys:Hotkeys.t ->
  ?on_warmup:(unit -> unit) ->
  ?control:(now:float -> unit) ->
  issue:(seq:int -> origin:int -> key:string -> k:(completion -> unit) -> unit) ->
  config ->
  report
