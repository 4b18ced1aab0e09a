(** Per-peer local data store: an ordered map with an optional journal.

    Items are keyed by their full order-preserving encoding (a byte
    string), so local range/prefix filtering is exact even though routing
    uses only the first {!Unistore_util.Ophash.routing_bits} bits. An
    [item_id] distinguishes distinct items that share a key (e.g. two
    triples with the same attribute/value); versions give last-writer-wins
    semantics for the update/replication protocol.

    Ordering contract (load-bearing): every scan ({!find}, {!range},
    {!with_prefix}, {!iter}, {!to_list}) yields items in ascending key
    order, and items sharing a key in newest-first order of their first
    insertion, with an LWW update leaving its item's position unchanged.
    Call sites (e.g. {!Unistore_triple.Tstore}'s first-seen dedup of
    lookup replies) rely on replies being deterministic and the same
    with the journal on or off. {!digest} and {!filter_partition}
    results are order-unspecified (all consumers are order-insensitive).
    test/test_store.ml replays a store with and without a journal
    against a reference model.

    The [Log] deployment adds a journal: every change to the store
    appends one record to a per-store segment file, and
    {!crash_restart} replays it. *)

type item = {
  key : string;  (** full order-preserving encoding; routing uses its prefix *)
  item_id : string;  (** identity for updates; unique per datum under its key *)
  payload : string;
      (** opaque application payload (for a triple entry, what its key
          and id do not say; see {!Unistore_triple.Tstore.items_of_triple}) *)
  version : int;  (** LWW version; inserts start at 0 *)
}

(** The answer of one data access — a lookup, range, prefix, broadcast
    or batch — with its cost. P-Grid ({!Overlay.result}), the Chord
    baseline and the substrate-independent [Dht] interface all re-export
    this one record. *)
type result = {
  items : item list;
  hops : int;  (** longest message chain involved *)
  peers_hit : int;  (** peers that executed local work *)
  complete : bool;  (** false on timeout / unreachable region *)
  completeness : float;
      (** coverage estimate in [0,1]: regions reached / regions
          addressed. Showers count answered vs announced split tokens,
          batches count acked vs sent keys, single-destination requests
          are all ([1.0]) or nothing ([0.0]). [1.0] iff [complete] —
          partial results are tagged instead of silently truncated. *)
  latency : float;  (** simulated ms from issue to completion *)
}

(** The complete answer to an empty request. *)
val empty_result : result

(** [side_by_side ~latency rs] is the cost of the requests [rs] run
    concurrently and done [latency] ms after the first was issued: the
    worst hops and coverage, the summed peers, and no items. *)
val side_by_side : latency:float -> result list -> result

(** Deterministic memory-model estimate of resident bytes (records,
    string headers and padding, container overhead, the id index,
    tombstones), and the live item count. The same with the journal on
    or off; not a GC measurement. *)
type stats = { bytes : int; triples : int }

(** The deployment's storage setting, threaded from
    [Unistore.config.store] / CLI [--backend] through
    {!Config.t.store_backend} down to {!Node.create}: [Hash] keeps no
    journal, [Log] journals each store to [dir] (created on demand). *)
type backend = Hash | Log of { dir : string }

(** ["hash"] or ["log"]. *)
val backend_label : backend -> string

type t

(** [create ?backend ?name ()] — defaults to [Hash]. For [Log], the
    journal is [dir/name.log] ([name] defaults to a unique generated
    one) and starts empty: a segment already at that path is
    overwritten, never replayed. *)
val create : ?backend:backend -> ?name:string -> unit -> t

(** The backend this store was created with. *)
val kind : t -> backend

(** [generation t] counts the mutating calls made on this store: it
    starts at 0 and every call to {!put},
    {!filter_partition}, {!clear} or {!crash_restart} raises it by one,
    whether or not the contents changed (a stale [put] still counts).
    Reads ({!find}, {!range}, {!with_prefix}, {!iter}, {!to_list},
    {!digest}, {!stats}, ...) never move it. So a summary of the
    contents computed at generation [g] is still exact while
    [generation t = g] — the memo behind
    {!Unistore_triple.Stat_sample.of_node}. It keeps rising across a
    journal's crash-restart replay. *)
val generation : t -> int

(** [put t item] inserts, updates or deletes (a {!tombstone}). An entry
    with the same [(key, item_id)] is replaced iff the new version is
    greater, or equal with a different payload; but a tombstone wins a
    tie and a live item beats a tombstone only with a greater version.
    Returns [true] iff the store changed: a stale write and a re-put of
    the stored entry itself return [false]. *)
val put : t -> item -> bool

(** {2 Deletes}

    A delete is an LWW write of a tombstone: an item whose payload is a
    reserved marker that no encoder emits. Tombstones are never
    collected and no read ({!find}, {!range}, {!with_prefix}, {!iter},
    {!iter_clip}, {!to_list}, {!size}) sees them; {!digest},
    {!filter_partition}, {!stats}, {!held} and the journal include them. *)

val tombstone : key:string -> item_id:string -> version:int -> item

(** The live item or the tombstone stored under [(key, item_id)]. *)
val held : t -> key:string -> item_id:string -> item option

(** [item] as its owner stores it: where [item] or the held entry is a
    tombstone, a version not above the held one becomes the held
    version + 1, so a delete supersedes the item and a re-insert the
    delete. Otherwise [item] (plain LWW). *)
val stamp : t -> item -> item

(** Every tombstone, in (key, id) order. *)
val tombstones : t -> item list

(** All items with exactly this key. *)
val find : t -> string -> item list

(** All items with [lo <= key <= hi] (byte-string order). *)
val range : t -> lo:string -> hi:string -> item list

(** All items whose key starts with [prefix]. *)
val with_prefix : t -> string -> item list

(** Number of stored live items. *)
val size : t -> int

val iter : t -> (item -> unit) -> unit

(** [iter_clip t ~lo ~hi f] applies [f] to the items with
    [lo <= key < hi] ([hi = None]: no upper bound), in scan order. *)
val iter_clip : t -> lo:string -> hi:string option -> (item -> unit) -> unit

val to_list : t -> item list

(** [filter_partition t pred] keeps items and tombstones satisfying
    [pred] and returns the removed ones (used when a peer splits its
    path and hands data over). *)
val filter_partition : t -> (item -> bool) -> item list

(** [digest t] lists [(key, item_id, version)] of every item and
    tombstone, for anti-entropy. *)
val digest : t -> (string * string * int) list

val clear : t -> unit

(** Memory-model estimate for this store's current contents. *)
val stats : t -> stats

(** Simulate a crash followed by a restart. Without a journal the
    store comes back empty (returns [0]); with one it replays the
    journal and returns the number of recovered items. [keep_frac]
    (journal only) first truncates the journal to that fraction of its
    bytes — the "torn tail" a real crash leaves when buffered writes
    never hit the disk; the cut may fall mid-record, and replay keeps
    exactly the records fully contained in the surviving prefix. *)
val crash_restart : ?keep_frac:float -> t -> int

(** Logical size of the journal in bytes (0 without one). *)
val log_bytes : t -> int

(** Flush buffered journal appends to the OS (no-op without one). *)
val sync : t -> unit

(** {2 The id index}

    A key of more than [indexed_after] items carries an exact index
    from each item id to its item, so a put finds its id without
    walking the key. Exposed for its invariant tests. *)

val indexed_after : int

module Tbl : Hashtbl.S with type key = string

(** key -> (item id -> item) for every indexed key; [None] until the
    store's first key grows past [indexed_after] items, and again after
    {!clear}. *)
val id_index : t -> item Tbl.t Tbl.t option
