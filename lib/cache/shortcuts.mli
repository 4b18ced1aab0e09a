(** Routing shortcut cache (level 1 of the caching subsystem).

    Greedy trie routing resolves every request in O(log n) hops, but a
    query origin keeps seeing the same responsible peers: every [Found]
    or [MultiFound] reply names the region its sender is responsible
    for, and remembering (region → peer) lets the next request to that
    region go in one hop. This table holds those learned long-range links.

    Entries are keyed by their region — [lo] inclusive, [hi] exclusive
    ([None] = unbounded above), exactly the shape of
    {!Unistore_pgrid.Node.region} — so a containment lookup finds the
    unique learned peer for a key. Regions learned from replies never
    overlap (they partition the key space as long as peer paths are
    stable), so [find] is unambiguous; a peer that did split since we
    learned it merely forwards the request onward from a closer point.

    Eviction is LRU by a use counter; capacity 0 disables the cache
    (the "caching off" arm of experiments). Dead peers are invalidated
    by the routing layer: on a request timeout, or when a containment
    hit or a {!near} peer is one the network reports dead. *)

type t

val create : capacity:int -> t
val set_capacity : t -> int -> unit
val capacity : t -> int
val length : t -> int

(** [set_spread t true] lets an entry accumulate several peers for the
    same region (an owner's replicas and hot-path boost replicas, as
    advertised in replies) and makes {!find} rotate through them
    round-robin, spreading an origin's traffic instead of pinning the
    first responder. Off (the default) preserves the classic
    one-peer-per-region behavior exactly. *)
val set_spread : t -> bool -> unit

val spread : t -> bool

(** [learn t ~lo ~hi ~peer] remembers that [peer] is responsible for
    [[lo, hi)], replacing any previous entry for the same region and
    evicting the least recently used entry beyond capacity. *)
val learn : t -> lo:string -> hi:string option -> peer:int -> unit

(** [find t ~key] is the learned peer whose region contains [key], if
    any; a hit refreshes the entry's recency. In spread mode a
    multi-peer entry answers round-robin. *)
val find : t -> key:string -> int option

(** [near t ~key] is the peers of the cached regions just before
    (starting at or below [key]) and just after [key] in key order,
    those of the region before first. P-Grid's split-point trie keeps
    key order, so these two regions share the longest prefix with [key]
    among all cached ones. Unlike {!find} it refreshes no recency and
    advances no round-robin. *)
val near : t -> key:string -> int list

(** [invalidate_peer t peer] drops every entry pointing at [peer]
    (called when [peer] times out or is seen dead); returns the number
    of entries removed. *)
val invalidate_peer : t -> int -> int

(** [invalidate_where t ~f] drops every entry whose target peer satisfies
    [f] (e.g. "currently dead" or "moved by a repair round"); returns the
    number dropped. *)
val invalidate_where : t -> f:(int -> bool) -> int

val clear : t -> unit
