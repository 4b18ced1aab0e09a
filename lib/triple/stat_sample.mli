(** Local statistics sampling for the gossiped statistics cache.

    A responsible peer can summarize its share of the data without any
    network traffic: its store holds, among the three index families,
    the A#v entries of every triple whose (attribute, value) pair hashes
    into its region. This module decodes those entries into the
    per-attribute {!Unistore_cache.Statcache.summary} records that
    {!Unistore_pgrid.Gossip.stats_round} spreads — the decoding lives
    here because only the triple layer knows the index key layout
    ({!Keys}) and the value encodings ({!Value}).

    Replica-group safety: summaries carry the peer's region, and the
    statistics cache deduplicates by (attribute, region), so replicas
    holding the same region never double count. *)

(** [of_node ~now node] summarizes [node]'s local A#v entries, one
    summary per attribute present (sorted by attribute), stamped with
    the node's write epoch and [now].

    Two steps. The content pass builds [attr], [peer], [count],
    [distinct], [lo], [hi] and [string_valued] from the store's A#v
    slice ([Store.with_prefix store "A\000"], so OID, value and q-gram
    entries are never visited) and is memoised in [node.stat_memo]
    under the {!Unistore_pgrid.Store.generation} it saw: while the
    store is unchanged, a sample re-uses it instead of re-scanning.
    The restamp runs on every call and sets the four fields that move
    without a store write: [region_lo] (the node's current region),
    [version] (its write epoch), [sampled_at] ([now]) and [load]
    ({!Unistore_pgrid.Node.served_delta}, called exactly once per
    sample). The result equals a cold recomputation field by field
    (checked by test/test_cache.ml against every kind of store write). *)
val of_node : now:float -> Unistore_pgrid.Node.t -> Unistore_cache.Statcache.summary list
