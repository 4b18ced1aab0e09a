(** Replica maintenance: anti-entropy and staleness measurement.

    Updates themselves are issued through {!Overlay.update} (route to the
    responsible peer, rumor-spread to replicas). Rumors can miss replicas
    (fanout limits, failures); periodic anti-entropy rounds reconcile the
    rest — together these give the loose consistency guarantees of Datta et
    al. (ICDCS'03) that the paper's update functionality relies on. *)

(** [anti_entropy_round ov] makes every alive peer exchange digests with
    one random alive replica (push-pull). Runs inside the simulator; call
    [Sim.run_all] (or further operations) to let the exchanges complete. *)
val anti_entropy_round : Overlay.t -> unit

(** [stats_round ov ~sample] makes every alive peer (1) refresh its own
    per-attribute statistics summaries via [sample ~now node] — the
    sampling function lives in the triple layer, which knows how to
    decode index keys — and (2) push a digest of its statistics cache,
    one stamp per region and no content, to [gossip_fanout] random
    alive peers (see {!Unistore_cache.Statcache.digest}). A receiver
    adopts later samples of the versions it holds and pulls the regions
    it lacks; the pushed-back summaries merge newest-wins and carry a
    relay budget: the puller relays the summaries that were news to it
    (an unknown region, or a higher version) to one random alive peer,
    for up to [stats_relay_rounds] more hops. Pushes alone would reach
    about 3{^r} peers in [r] rounds; with relays, four rounds give over
    90% of a 256-peer network every summary. Re-samples of unchanged
    data are neither pulled nor relayed, so a converged network sends
    exactly [gossip_fanout] digests per alive peer per round. Run inside
    the simulator; drive it (e.g. [Sim.run_all]) to let pushes arrive. *)
val stats_round :
  Overlay.t ->
  sample:(now:float -> Node.t -> Unistore_cache.Statcache.summary list) ->
  unit

(** [replica_versions ov ~key ~item_id] lists, for every peer responsible
    for [key], the version of the item it currently holds ([None] =
    missing). Measurement helper for convergence experiments. *)
val replica_versions :
  Overlay.t -> key:string -> item_id:string -> (int * int option) list

(** [staleness ov ~key ~item_id ~version] is the fraction of responsible
    peers that do NOT yet hold [version] (0.0 = fully converged). *)
val staleness : Overlay.t -> key:string -> item_id:string -> version:int -> float
