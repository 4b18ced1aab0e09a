(** P-Grid overlay parameters. The batched paths (splitting inserts,
    in-network range aggregation, multi-key probes) and replica
    failover (when every routing reference for the next hop is dead,
    route to a live replica of one of them and learn it as a new
    reference) are not configurable: they always run, see {!Overlay}. *)

type t = {
  refs_per_level : int;
      (** routing references kept per trie level (fan-out of the routing
          table); P-Grid keeps several for fault tolerance *)
  replication : int;  (** desired number of peers per leaf (replica group size) *)
  max_depth : int;  (** maximum trie depth (paths never grow beyond this) *)
  timeout_ms : float;  (** request timeout before retry / partial completion *)
  retries : int;  (** end-to-end retries of every operation (see {!Request}) *)
  retry_backoff : float;
      (** exponential backoff base: retry [n] waits
          [timeout_ms * retry_backoff^n]; [1.0] = fixed interval *)
  retry_jitter : float;
      (** uniform jitter fraction applied to each retry timeout
          ([+-retry_jitter * timeout]); [0.0] = deterministic timeouts,
          desynchronizes retry storms otherwise *)
  proximity_routing : bool;
      (** when true, forward to the ref with the lowest base latency
          (topology-aware routing); otherwise pick uniformly *)
  gossip_fanout : int;
      (** replicas contacted per rumor-spreading round for updates *)
  max_hops : int;
      (** messages are not forwarded beyond this hop count (loop
          protection in not-yet-converged overlays); a range cut short
          here finishes at once as partial, other requests time out *)
  shortcut_capacity : int;
      (** routing-shortcut cache entries kept per peer (learned
          region → peer links consulted before greedy routing);
          0 disables shortcut caching *)
  adaptive_timeout : bool;
      (** derive retry deadlines from per-peer/per-class EWMA latency
          tracking ({!Rtt}) instead of the fixed [timeout_ms]; the fixed
          value remains the cold-start fallback and the upper clamp *)
  min_timeout_ms : float;
      (** lower clamp for adaptive retry deadlines — keeps a
          fast-converging estimate from retrying into its own tail *)
  hot_replication : bool;
      (** let {!Balance.round} spawn boost replicas for regions whose
          gossiped load stands out (see [hot_factor]) and retire them
          when the region cools; also lets shortcut caches hold several
          peers per region and rotate between them, so origins spread
          traffic across an owner's replicas and boosts instead of
          pinning the first responder *)
  hot_factor : float;
      (** a region is hot when its gossiped per-round load reaches
          [hot_factor] times the mean over reporting regions *)
  hot_min_load : int;
      (** absolute per-round load floor below which a region is never
          considered hot (keeps idle deployments from boosting noise) *)
  hot_max_boosts : int;  (** boost replicas allowed per hot region *)
  store_backend : Store_intf.backend;
      (** per-peer store implementation (see {!Store}): [Hash] (default)
          and [Packed] are in-memory; [Log { dir }] persists each peer's
          store as an append-only file under [dir], enabling
          crash-restart with log replay ({!Overlay.crash}) *)
}

val default : t
