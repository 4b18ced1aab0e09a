(** Per-peer local data store — a facade over pluggable backends.

    Items are keyed by their full order-preserving encoding (a byte
    string), so local range/prefix filtering is exact even though routing
    uses only the first {!Unistore_util.Ophash.routing_bits} bits. An
    [item_id] distinguishes distinct items that share a key (e.g. two
    triples with the same attribute/value); versions give last-writer-wins
    semantics for the update/replication protocol.

    Two backends implement the same {!Store_intf.S} contract (scans in
    ascending key order, newest-first within a key — see the ordering
    contract in {!Store_intf}): [Hash] (the default ordered-map store)
    and [Log] (file-backed log-structured, survives {!crash_restart}).
    test/test_store.ml replays both differentially against a reference
    model. *)

type item = Store_intf.item = {
  key : string;  (** full order-preserving encoding; routing uses its prefix *)
  item_id : string;  (** identity for updates; unique per logical datum *)
  payload : string;  (** opaque application payload (a serialized triple) *)
  version : int;  (** LWW version; inserts start at 0 *)
}

(** Deterministic memory-model estimate of resident bytes, and the live
    item count. Comparable across backends; not a GC measurement. *)
type stats = Store_intf.stats = { bytes : int; triples : int }

type backend = Store_intf.backend = Hash | Log of { dir : string }

(** ["hash"] or ["log"]. *)
val backend_label : backend -> string

val pp_item : Format.formatter -> item -> unit

(** Approximate wire size of an item in bytes (for bandwidth accounting). *)
val item_bytes : item -> int

type t

(** [create ?backend ?name ()] — defaults to [Hash]. For [Log], the
    segment file is [dir/name.log] ([name] defaults to a unique
    generated one). *)
val create : ?backend:backend -> ?name:string -> unit -> t

(** The backend this store was created with. *)
val kind : t -> backend

(** [generation t] counts the mutating calls made on this store: it
    starts at 0 and every call to {!put}, {!remove},
    {!filter_partition}, {!clear} or {!crash_restart} raises it by one,
    whether or not the contents changed (a stale [put] still counts).
    Reads ({!find}, {!range}, {!with_prefix}, {!iter}, {!to_list},
    {!digest}, {!stats}, ...) never move it. So a summary of the
    contents computed at generation [g] is still exact while
    [generation t = g] — the memo behind
    {!Unistore_triple.Stat_sample.of_node}. The counter lives in this
    facade, not in a backend, so it keeps rising across a log
    backend's crash-restart replay. *)
val generation : t -> int

(** [put t item] inserts or updates. An existing entry with the same
    [(key, item_id)] is replaced iff the new version is greater or equal.
    Returns [true] if the store changed. *)
val put : t -> item -> bool

(** [remove t ~key ~item_id] removes an entry if present. *)
val remove : t -> key:string -> item_id:string -> unit

(** All items with exactly this key. *)
val find : t -> string -> item list

(** All items with [lo <= key <= hi] (byte-string order). *)
val range : t -> lo:string -> hi:string -> item list

(** All items whose key starts with [prefix]. *)
val with_prefix : t -> string -> item list

(** Number of stored items. *)
val size : t -> int

val iter : t -> (item -> unit) -> unit
val to_list : t -> item list

(** [filter_partition t pred] keeps items satisfying [pred] and returns the
    removed ones (used when a peer splits its path and hands data over). *)
val filter_partition : t -> (item -> bool) -> item list

(** [digest t] lists [(key, item_id, version)] for anti-entropy. *)
val digest : t -> (string * string * int) list

val clear : t -> unit

(** Memory-model estimate for this store's current contents. *)
val stats : t -> stats

(** Simulate a crash followed by a restart. The hash backend comes
    back empty (returns [0]); the log backend replays its file and
    returns the number of recovered items. [keep_frac] (log only)
    first truncates the log to that fraction of its bytes — the "torn
    tail" a real crash leaves when buffered writes never hit the disk;
    the cut may fall mid-record, and replay keeps exactly the records
    fully contained in the surviving prefix. *)
val crash_restart : ?keep_frac:float -> t -> int

(** The log backend's segment path ([None] for the hash backend). *)
val log_path : t -> string option

(** Logical size of the log file in bytes (0 for the hash backend). *)
val log_bytes : t -> int

(** Flush buffered log appends to the OS (no-op for the hash backend). *)
val sync : t -> unit
