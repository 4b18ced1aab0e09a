(** Per-operator query profiles (the EXPLAIN ANALYZE view).

    The paper's adaptive processing re-optimizes "at each peer" using
    observed intermediate results (§2); this record is that observation
    made user-visible: for every executed physical step — pattern,
    chosen access path, the peer that carried it — the rows flowing in
    and out, the network messages it issued, and the simulated time it
    took. {!Unistore_qproc.Engine} builds one from every execution
    report; the CLI's [--profile] flag renders it.

    Invariants: [ops] are in execution order; [messages]/[latency_ms]
    at the top level are end-to-end totals (they include routing and
    post-processing the per-operator rows do not attribute). *)

type op = {
  label : string;  (** the triple pattern, e.g. ["(?a,'name',?n)"] *)
  access : string;  (** chosen access path, e.g. ["av-lookup"] *)
  carrier : int;  (** peer that executed the step *)
  rows_in : int;  (** bindings flowing into the step *)
  rows_out : int;  (** bindings produced (after residual filters) *)
  messages : int;  (** network messages issued by the step *)
  latency_ms : float;  (** simulated time spent in the step *)
}

type t = {
  query : string option;  (** VQL source, when known *)
  strategy : string;  (** ["centralized"] or ["mutant"] *)
  rows : int;
  messages : int;
  latency_ms : float;
  bytes_shipped : int;  (** plan + binding bytes moved (mutant only) *)
  complete : bool;
  completeness : float;
      (** coverage estimate in [0,1] (regions reached / addressed);
          [1.0] iff [complete] *)
  ops : op list;
}

val op_to_json : op -> Json.t
val to_json : t -> Json.t

(** Aligned per-operator table plus a totals line. *)
val pp : Format.formatter -> t -> unit
