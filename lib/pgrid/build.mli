(** Overlay construction.

    Two construction paths, matching the paper:

    - {!oracle}: deterministic construction from a data sample, splitting
      the key space at data quantiles so every leaf carries a comparable
      share of the sample. This is the converged state the P-Grid
      load-balancing protocol (Aberer et al., VLDB'05) reaches; benches use
      it for large networks. Pass [~balanced:true] to force uniform
      key-space splits instead (the "no load balancing" baseline of
      experiment E5).

    - {!bootstrap}: the decentralized construction: peers start with empty
      paths and their own data, repeatedly meet pairwise at random, and
      split / specialize / exchange references — "constructed by pair-wise
      interactions between nodes without central coordination nor global
      knowledge" (paper §2). Runs inside the simulator; every meeting costs
      messages. *)

(** [oracle sim ~latency ~rng ~config ~n ~sample_keys ()] creates an
    [n]-peer overlay whose trie is shaped by [sample_keys] (full encoded
    keys, e.g. from the dataset about to be inserted). With an empty sample
    the split is uniform. *)
val oracle :
  Sim.t ->
  latency:Latency.t ->
  rng:Unistore_util.Rng.t ->
  ?drop:float ->
  config:Config.t ->
  n:int ->
  sample_keys:string list ->
  ?balanced:bool ->
  unit ->
  Overlay.t

type bootstrap_report = {
  rounds_run : int;
  exchanges : int;  (** pairwise meetings performed *)
  final_depth : int;
  coverage_ok : bool;  (** every key region owned by >= 1 peer *)
}

(** [bootstrap sim ~latency ~rng ~config ~n ~initial_data ()] runs the
    decentralized construction: peer [i] starts holding
    [List.assoc i initial_data] (if present). [rounds] meetings per peer
    are simulated (default 30); [split_threshold] is the combined local
    data volume above which two same-path peers split rather than
    replicate (default 16).

    With [groups = g] and [merge_at = r], peers meet only within [g]
    disjoint id-groups for the first [r] rounds and across the whole
    network afterwards — the paper's "merging of two, formerly
    independent, overlays" (§2): deterministic split boundaries make the
    groups' tries consistent, so merging needs no special protocol. *)
val bootstrap :
  Sim.t ->
  latency:Latency.t ->
  rng:Unistore_util.Rng.t ->
  ?drop:float ->
  config:Config.t ->
  n:int ->
  initial_data:(int * Store.item list) list ->
  ?rounds:int ->
  ?split_threshold:int ->
  ?groups:int ->
  ?merge_at:int ->
  unit ->
  Overlay.t * bootstrap_report

(** [join ov ~id ~bootstrap] adds peer [id] to a {e running} overlay by
    cloning [bootstrap]: same trie position and boundaries, copied routing
    references, membership in the replica group, and a full copy of the
    data (all transfers counted as messages). Returns [false] if the
    bootstrap peer was unreachable. This is how the demo lets "interested
    people include their own machines into a running P-Grid overlay"
    (paper §4). *)
val join : Overlay.t -> id:int -> bootstrap:int -> bool

(** [repair_refs overlay] models a converged round of P-Grid's periodic
    routing-table maintenance after failures: every alive peer's dead
    references are replaced by alive peers of the same complementary
    subtree. (The maintenance traffic itself is not charged — use this to
    compare queries on a stabilized vs. an unrepaired overlay.) *)
val repair_refs : Overlay.t -> unit
