(** Self-healing maintenance: periodic repair of routing tables and
    replica groups after churn.

    One {!round} re-points dead routing references ({!Build.repair_refs}),
    adopts stray same-path peers (freshly {!Build.join}ed or revived) into
    their leaf's replica group, migrates spare peers from over-replicated
    leaves into depleted ones — with an accounted [Replicate] state
    transfer from a surviving member — and invalidates routing shortcuts
    that point at dead or migrated peers. Deterministic: leaves are
    visited in path order, members in id order, migrants assigned
    neediest-leaf-first.

    A leaf whose members are all dead cannot be repaired (its data lives
    only in dead stores until they revive); such groups are counted in
    [unrepaired]. *)

type report = {
  adopted : int;  (** stray same-path peers newly registered into groups *)
  moved : int;  (** peers migrated into depleted replica groups *)
  resynced_bytes : int;  (** payload shipped by migration state transfers *)
  shortcuts_dropped : int;  (** stale shortcut entries invalidated *)
  unrepaired : int;  (** groups still below replication (no donors left) *)
}

(** Run one repair round. Bookkeeping is immediate; the migration state
    transfers are real messages, so callers should drive the simulator
    (e.g. [Sim.run_all]) afterwards to let them land. Records
    [fault.repair.*] metrics when a registry is attached. *)
val round : Overlay.t -> report
