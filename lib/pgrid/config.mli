(** P-Grid overlay parameters. The batched paths (splitting inserts,
    path compression of range showers, multi-key probes) and replica
    failover (when every routing reference for the next hop is dead,
    route to a live replica of one of them and learn it as a new
    reference) are not configurable: they always run, see {!Overlay}. *)

type t = {
  refs_per_level : int;
      (** routing references kept per trie level (fan-out of the routing
          table); P-Grid keeps several for fault tolerance *)
  replication : int;  (** desired number of peers per leaf (replica group size) *)
  timeout_ms : float;  (** request timeout before retry / partial completion *)
  retries : int;
      (** end-to-end retries of every operation (see {!Request}); retry
          [n] waits [timeout_ms * 2^n] *)
  retry_jitter : float;
      (** uniform jitter fraction applied to each retry timeout
          ([+-retry_jitter * timeout]); [0.0] = deterministic timeouts,
          desynchronizes retry storms otherwise *)
  proximity_routing : bool;
      (** routing forwards to the refs that share the longest prefix
          with the key; when true, the one of them with the lowest base
          latency wins (topology-aware routing), otherwise one picked
          uniformly *)
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
          value remains the cold-start fallback and the upper clamp;
          {!Request.min_timeout_ms} is the lower one *)
  hot_replication : bool;
      (** let {!Balance.round} spawn boost replicas for regions whose
          gossiped load stands out (see {!Balance.hot_factor}) and retire them
          when the region cools; also lets shortcut caches hold several
          peers per region and rotate between them, so origins spread
          traffic across an owner's replicas and boosts instead of
          pinning the first responder *)
  store_backend : Store.backend;
      (** per-peer store journal (see {!Store}): [Hash] (default)
          keeps none; [Log { dir }] journals each peer's writes to a
          fresh append-only segment under [dir], which crash-restart
          replays ({!Overlay.crash}) *)
}

val default : t
