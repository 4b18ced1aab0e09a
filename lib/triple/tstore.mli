(** The distributed triple store: UniStore's storage layer.

    Every operation is continuation-passing: it calls [k] exactly once,
    at the tail of the handler that finishes it. Wait for one with
    {!Unistore_sim.Sim.await}.

    Inserting a triple creates the three index entries of the paper's
    Fig. 2 (OID, A#v, v), each holding the serialized triple. When the
    q-gram index is enabled, every distinct q-gram of a string value
    also keys an entry that names the value, not the triple (item id
    {!Value.encode}, empty payload): a dictionary of the stored strings,
    one entry per (gram, distinct string) however many triples share the
    string. All access paths return the deduplicated triples plus a cost
    record (hops, peers, latency, completeness), which the query
    processor's cost model is calibrated against. *)

type t

(** Cost of a blocking read ({!by_oid_sync}); the asynchronous access
    paths report a {!Dht.result} instead. *)
type meta = {
  hops : int;  (** deepest message chain *)
  peers_hit : int;  (** peers that did local work *)
  complete : bool;
  completeness : float;
      (** coverage estimate in [0,1]; for multi-request operations, the
          worst (minimum) coverage across the constituent requests *)
  latency : float;  (** ms of simulated time *)
  messages : int;  (** network messages sent while the read ran *)
}

(** [create ?qgrams dht] — [qgrams] (default true) controls the string
    similarity index. Every ranking/similarity fast path runs wherever
    [dht] offers the capability it needs ({!Dht.t.range_topn},
    {!Dht.t.scan_reduce}, {!Dht.t.multi_lookup}); otherwise the access
    falls back to the full-region, origin-side or per-gram path. *)
val create : ?qgrams:bool -> Dht.t -> t

val dht : t -> Dht.t
val qgrams_enabled : t -> bool

(** {2 Insertion} *)

(** [index_keys ~qgrams triple]: the keys a triple is stored under —
    its O, A#v and V keys, then (with [qgrams]) one {!Keys.qgram_key}
    per distinct q-gram of a string value. Overlays are shaped by
    sampling these keys ([Publications.sample_keys]). *)
val index_keys : qgrams:bool -> Triple.t -> string list

(** [insert t ~origin triple ~k]: [k true] iff every index entry was
    stored. *)
val insert : t -> origin:int -> Triple.t -> k:(bool -> unit) -> unit

(** [insert_tuple t ~origin ~oid fields ~k] vertically decomposes a
    logical tuple and inserts its triples one after another; [k] gets
    the number of triples stored. *)
val insert_tuple :
  t -> origin:int -> oid:string -> (string * Value.t) list -> k:(int -> unit) -> unit

(** [insert_bulk t ~origin triples ~k] stores many triples at once: all
    their index entries travel as one batch through
    {!Dht.t.bulk_insert} (one splitting message per touched subtree
    instead of one routed exchange per entry). Falls back to per-triple
    {!insert} when the substrate has no batch path. [k true] iff every
    entry was acked. *)
val insert_bulk : t -> origin:int -> Triple.t list -> k:(bool -> unit) -> unit

(** {2 Deletion & update}

    Deleting a triple removes its O, A#v and V entries. Its gram entries
    stay as hints: another triple may hold the same string, and
    {!similar}/{!containing} resolve every candidate value through the
    A#v or V index, which drops values no triple holds. Caveat (inherent
    to loose consistency, cf. Datta et al.): deletions are not tombstoned,
    so an anti-entropy round against a replica partitioned away during the
    delete can resurrect the item; versioned {e updates} through
    {!Unistore_pgrid.Overlay.update} are the conflict-safe path. *)

val delete : t -> origin:int -> Triple.t -> k:(bool -> unit) -> unit

(** [update_value t ~origin ~oid ~attr ~old_value v ~k] replaces one
    triple's value: it deletes the old index entries, then inserts the
    new ones; [k true] iff both succeeded. *)
val update_value :
  t ->
  origin:int ->
  oid:string ->
  attr:string ->
  old_value:Value.t ->
  Value.t ->
  k:(bool -> unit) ->
  unit

(** [decode_items items] deserializes the triples of a reply's O, A#v
    or V entries, dropping malformed payloads. *)
val decode_items : Unistore_pgrid.Store.item list -> Triple.t list

(** {2 Access paths} — each passes the matching triples and their cost
    to [k]. *)

(** All triples of one logical tuple (OID index). *)
val by_oid : t -> origin:int -> string -> k:(Triple.t list * Dht.result -> unit) -> unit

(** Exact [A = v] (A#v index). *)
val by_attr_value :
  t -> origin:int -> attr:string -> Value.t -> k:(Triple.t list * Dht.result -> unit) -> unit

(** Range [lo <= A <= hi] (A#v index, overlay range query). *)
val by_attr_range :
  t ->
  origin:int ->
  attr:string ->
  lo:Value.t ->
  hi:Value.t ->
  k:(Triple.t list * Dht.result -> unit) ->
  unit

(** Every triple of one attribute (A#v region scan). *)
val by_attr_all : t -> origin:int -> attr:string -> k:(Triple.t list * Dht.result -> unit) -> unit

(** String-prefix search on one attribute's values. *)
val by_attr_string_prefix :
  t ->
  origin:int ->
  attr:string ->
  string_prefix:string ->
  k:(Triple.t list * Dht.result -> unit) ->
  unit

(** Exact value on {e any} attribute (v index). *)
val by_value : t -> origin:int -> Value.t -> k:(Triple.t list * Dht.result -> unit) -> unit

(** [top_n_by_attr t ~origin ~attr ~n ?lo ?hi]: the [n] smallest values
    of [attr] (within the optional bounds), retrieved with an
    early-terminating sequential traversal of the A#v region in key
    order — the paper's top-N ranking operator with a physical
    implementation that does not fetch the whole region. Falls back to a
    full range scan on substrates without budgeted traversals. *)
val top_n_by_attr :
  t ->
  origin:int ->
  attr:string ->
  n:int ->
  ?lo:Value.t ->
  ?hi:Value.t ->
  k:(Triple.t list * Dht.result -> unit) ->
  unit ->
  unit

(** Full network scan with an arbitrary predicate (flooding fallback). *)
val scan : t -> origin:int -> pred:(Triple.t -> bool) -> k:(Triple.t list * Dht.result -> unit) -> unit

type oid_scan =
  origin:int ->
  pred:(Triple.t -> bool) ->
  reduce:(Triple.t list -> Triple.t list) ->
  k:(Triple.t list * Dht.result -> unit) ->
  unit

(** [oid_scan_reduce t] is [None] unless the substrate ships closures
    to reduce at the leaves. [Some scan]: [scan ~origin ~pred ~reduce ~k]
    scans the OID region
    (where all triples of one logical tuple share a single key and are
    therefore collocated on one peer), keeps triples matching [pred] and
    runs [reduce] at {e each leaf} over its locally matched triples
    before the reply travels back — the skyline-pushdown primitive: a
    leaf-local partial skyline drops dominated tuples at the source.
    [reduce] must only drop triples, never invent them; because tuples
    are collocated, any per-tuple decision it makes (e.g. "this tuple is
    incomplete" or "this tuple is dominated by a co-located one") is
    globally sound. *)
val oid_scan_reduce : t -> oid_scan option

(** [similar t ~origin ?attr ~pattern ~d]: triples whose string value is
    within edit distance [d] of [pattern] (restricted to [attr] when
    given). Uses the q-gram index when it can guarantee completeness
    ([pattern] long enough relative to [d]): one batched fetch of gram
    entries, verification of the strings they name at the origin, then
    one batched fetch of the matching values' A#v keys ([attr] given)
    or V keys. Falls back to flooding otherwise or when the index is
    disabled. *)
val similar :
  t ->
  origin:int ->
  attr:string option ->
  pattern:string ->
  d:int ->
  k:(Triple.t list * Dht.result -> unit) ->
  unit

(** Whether [similar] would use the q-gram index for this predicate. *)
val qgram_applicable : t -> pattern:string -> d:int -> bool

(** [containing t ~origin ~attr ~pattern]: triples whose string value
    contains [pattern] as a substring (the paper's "efficient substring
    search"). Uses the q-gram index when [pattern] is at least
    {!Keys.q} long (every unpadded q-gram of the pattern occurs in a
    containing value's indexed gram set), resolving matches as
    {!similar} does; floods otherwise. *)
val containing :
  t ->
  origin:int ->
  attr:string option ->
  pattern:string ->
  k:(Triple.t list * Dht.result -> unit) ->
  unit

(** Whether [containing] can use the q-gram index for this pattern. *)
val substring_applicable : t -> pattern:string -> bool

(** {2 Schema mappings} — attribute correspondences stored as ordinary
    triples (attribute [sys:maps_to]), queryable like any other data. *)

val add_mapping : t -> origin:int -> string -> string -> k:(bool -> unit) -> unit

(** Transitive closure (bounded depth) of [sys:maps_to] around [attr];
    always contains [attr] itself. *)
val equivalent_attrs : t -> origin:int -> string -> k:(string list -> unit) -> unit

(** {2 Blocking read}

    [by_oid_sync t ~origin oid] awaits {!by_oid} and meters the messages
    sent meanwhile. Callers outside the query stack use it; nothing
    below the facade does. *)

val by_oid_sync : t -> origin:int -> string -> Triple.t list * meta
