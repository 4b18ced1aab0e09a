(** Deterministic, seeded fault-injection scenarios.

    P-Grid's pitch (and the paper's, §2) is robustness under churn; this
    module makes that testable. A {!spec} describes a failure scenario —
    crash/revive churn at a configurable rate, message-loss bursts, slow
    (high-latency) peers, and region partitions — and {!inject} compiles
    it into simulator events layered over {!Net.kill}/{!Net.revive} and
    the {!Net} fault hooks.

    Determinism contract: all randomness flows from [spec.seed] through a
    private {!Unistore_util.Rng} stream, victim sets are canonicalized
    before use (candidates are drawn from {!Net.Oracle.alive_peers}, which is
    sorted ascending by id regardless of the arena's internal swap-remove
    layout, so the sampled kill sets cannot leak physical memory order),
    and faults fire at scheduled simulation times — so the same spec
    against the same deployment yields a byte-identical {!render_log}
    and, with a tracer attached, an identical message trace. Every injected action is recorded via {!Trace.mark} with a
    [fault.*] kind so trace linting can correlate failures with protocol
    anomalies. *)

(** Crash/revive churn: every [interval_ms], kill a fresh [rate]-fraction
    of the currently-alive, unprotected peers; each victim revives (with
    its state intact) after [down_ms]. *)
type churn = { rate : float; interval_ms : float; down_ms : float }

(** One message-loss burst: at [burst_at] (relative to injection), raise
    the network's iid loss probability to [burst_drop]; restore the
    previous value after [burst_ms]. *)
type burst = { burst_at : float; burst_ms : float; burst_drop : float }

(** Slow peers: at [slow_at], multiply latencies touching a random
    [slow_fraction] of alive peers by [slow_factor] for [slow_ms]. *)
type slow = { slow_at : float; slow_ms : float; slow_fraction : float; slow_factor : float }

(** Region partition: at [part_at], split the listed peer groups from
    each other (peers not listed stay in the default group); heal after
    [part_ms]. Group membership is explicit because the driver is
    overlay-agnostic — callers map overlay regions to peer ids. *)
type partition = { part_at : float; part_ms : float; groups : int list list }

type spec = {
  seed : int;  (** sole randomness source for the scenario *)
  duration_ms : float;  (** churn keeps waving until this horizon *)
  churn : churn option;
  bursts : burst list;
  slow : slow option;
  partition : partition option;
  protected : int list;  (** never killed or slowed (e.g. query origins) *)
}

val spec :
  ?seed:int ->
  ?duration_ms:float ->
  ?churn:churn ->
  ?bursts:burst list ->
  ?slow:slow ->
  ?partition:partition ->
  ?protected:int list ->
  unit ->
  spec

val churn_spec : ?interval_ms:float -> ?down_ms:float -> rate:float -> unit -> churn

(** One logged injection action. *)
type event = { at : float; fault : string; peer : int; detail : string }

type 'msg t

(** [inject net spec] schedules the whole scenario and returns a handle
    for inspecting what actually fired. Injection is cheap; faults fire
    as the caller advances the simulation. *)
val inject : 'msg Net.t -> spec -> 'msg t

(** Actions fired so far, in order. *)
val log : 'msg t -> event list

val crashes : 'msg t -> int
val revives : 'msg t -> int
val render_event : event -> string

(** Canonical textual rendering of {!log}; equal strings certify
    identical replay. *)
val render_log : 'msg t -> string

val pp : Format.formatter -> 'msg t -> unit
