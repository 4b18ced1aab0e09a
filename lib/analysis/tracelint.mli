(** Distributed-trace linter.

    Replays a {!Unistore_sim.Trace.t} event log after a run and checks
    protocol-level invariants that no single message handler can see:

    - request/reply discipline per correlation id: every reply kind must
      answer a matching request ("orphan-reply", error), and
      single-reply requests must not be answered more than once
      ("multi-reply", error);
    - routing loops: the same request (kind + correlation id) delivered
      to the same destination more than [allowed_revisits] extra times
      within one attempt ("routing-loop", error) — greedy prefix/ring
      routing never revisits a peer, so revisits indicate a broken
      routing table. A [fault.retry] marker with the request's
      correlation id starts a new attempt, so a retry that re-walks
      its route is clean; re-sends without the marker (Chord's
      retries) need [allowed_revisits];
    - monotone clocks: send timestamps must be non-decreasing in trace
      order ("clock-regression", error);
    - message-count conservation against an {!Unistore_obs.Metrics}
      registry that was attached over the same window: total events vs
      [net.sent] and per-kind counts vs [net.sent.<kind>]
      ("conservation", error) — fault markers ([fault.*], recorded
      outside [Net.send]) are excluded from both sides;
    - crash handling: every request that died against a crashed peer
      ([To_dead] outcome with a matching [fault.crash] marker) must be
      followed by a same-correlation retry, reply, or [fault.partial]
      marker ("unhandled-crash", error);
    - protocol vocabulary: every non-[fault.*] event kind must appear in
      the static {!Protocol} table ("unknown-kind", error) — the runtime
      counterpart of {!Srclint}'s source-side cross-check;
    - unresolved events at the end of a settled run ("in-flight",
      info).

    Rules describe a protocol's request/reply vocabulary; {!pgrid_rules}
    and {!chord_rules} match the two overlays. *)

module Trace = Unistore_sim.Trace
module Metrics = Unistore_obs.Metrics

type reply_rule = {
  reply : string;  (** reply message kind, e.g. ["found"] *)
  requests : string list;  (** request kinds it may answer *)
  multi : bool;  (** true if one request legitimately fans out into many replies *)
}

type rules = {
  request_kinds : string list;  (** kinds subject to the routing-loop check *)
  replies : reply_rule list;
  known_kinds : string list;
      (** the full trace vocabulary, from {!Protocol.kinds}; any other
          non-[fault.*] kind is an ["unknown-kind"] error *)
}

val pgrid_rules : rules
val chord_rules : rules

(** [check_fault_response rules events] runs just the crash-handling
    check (it is part of {!lint}); exposed for fixture tests and for
    linting event lists assembled by hand. *)
val check_fault_response : rules -> Trace.event list -> Diagnostic.t list

(** [lint ~rules trace] checks the trace; [metrics] enables the
    conservation check. *)
val lint :
  ?allowed_revisits:int -> ?metrics:Metrics.t -> rules:rules -> Trace.t -> Diagnostic.t list

(** {2 Cache staleness}

    Result and routing caches must never make time run backwards for a
    client: once an origin has seen version [v] of an item, a later read
    returning an older version means a cache served a stale entry past
    its invalidation ("monotone reads" session guarantee). The facade
    records every successful lookup as a {!read_obs}. *)

type read_obs = {
  origin : int;  (** peer the read completed at *)
  key : string;  (** encoded index key that was read *)
  item_id : string;
  version : int;  (** version of the item the read returned *)
}

(** [monotone_reads obs] replays the observations in order and reports a
    ["stale-read"] error for every read that returned a version older
    than one the same origin had already observed for the same (key,
    item). *)
val monotone_reads : read_obs list -> Diagnostic.t list
