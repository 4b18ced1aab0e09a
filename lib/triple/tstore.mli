(** The distributed triple store: UniStore's storage layer.

    Inserting a triple creates the three index entries of the paper's
    Fig. 2 (OID, A#v, v) — plus, when the q-gram index is enabled, one
    entry per distinct q-gram of every string value. All access paths
    return the deduplicated triples plus a cost record (hops, peers,
    latency, completeness), which the query processor's cost model is
    calibrated against. *)

type t

(** Aggregate cost of a (possibly multi-request) storage operation. *)
type meta = {
  hops : int;  (** deepest message chain *)
  peers_hit : int;  (** peers that did local work *)
  complete : bool;
  completeness : float;
      (** coverage estimate in [0,1]; for multi-request operations, the
          worst (minimum) coverage across the constituent requests *)
  latency : float;  (** ms of simulated time *)
  messages : int;  (** network messages (sync wrappers only; 0 in CPS) *)
}

val pp_meta : Format.formatter -> meta -> unit

(** [create ?qgrams dht] — [qgrams] (default true) controls the string
    similarity index. Every ranking/similarity fast path runs wherever
    [dht] offers the capability it needs ({!Dht.t.range_topn},
    {!Dht.t.scan_reduce}, {!Dht.t.multi_lookup}); otherwise the access
    falls back to the full-region, origin-side or per-gram path. *)
val create : ?qgrams:bool -> Dht.t -> t

val dht : t -> Dht.t
val qgrams_enabled : t -> bool

(** {2 Insertion} *)

(** [insert t ~origin triple ~k]: [k true] iff every index entry was
    stored. *)
val insert : t -> origin:int -> Triple.t -> k:(bool -> unit) -> unit

val insert_sync : t -> origin:int -> Triple.t -> bool

(** [insert_tuple_sync t ~origin ~oid fields] vertically decomposes and
    inserts a logical tuple; returns the number of triples stored. *)
val insert_tuple_sync : t -> origin:int -> oid:string -> (string * Value.t) list -> int

(** [insert_bulk t ~origin triples ~k] stores many triples at once: all
    their index entries travel as one batch through
    {!Dht.t.bulk_insert} (one splitting message per touched subtree
    instead of one routed exchange per entry). Falls back to per-triple
    {!insert} when the substrate has no batch path. [k true] iff every
    entry was acked. *)
val insert_bulk : t -> origin:int -> Triple.t list -> k:(bool -> unit) -> unit

val insert_bulk_sync : t -> origin:int -> Triple.t list -> bool

(** {2 Deletion & update}

    Deleting a triple removes all of its index entries. Caveat (inherent
    to loose consistency, cf. Datta et al.): deletions are not tombstoned,
    so an anti-entropy round against a replica partitioned away during the
    delete can resurrect the item; versioned {e updates} through
    {!Unistore_pgrid.Overlay.update} are the conflict-safe path. *)

val delete : t -> origin:int -> Triple.t -> k:(bool -> unit) -> unit
val delete_sync : t -> origin:int -> Triple.t -> bool

(** [update_value_sync t ~origin ~oid ~attr ~old_value v] replaces one
    triple's value (delete old index entries + insert new ones). *)
val update_value_sync :
  t -> origin:int -> oid:string -> attr:string -> old_value:Value.t -> Value.t -> bool

(** {2 Access paths} — each returns the matching triples and its cost.
    The [*_sync] wrappers additionally meter messages. *)

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

(** Value range on any attribute (v index). *)
val by_value_range :
  t -> origin:int -> lo:Value.t -> hi:Value.t -> k:(Triple.t list * Dht.result -> unit) -> unit

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

val top_n_by_attr_sync :
  t -> origin:int -> attr:string -> n:int -> ?lo:Value.t -> ?hi:Value.t -> unit ->
  Triple.t list * meta

(** Full network scan with an arbitrary predicate (flooding fallback). *)
val scan : t -> origin:int -> pred:(Triple.t -> bool) -> k:(Triple.t list * Dht.result -> unit) -> unit

(** Whether {!oid_scan_reduce} will actually reduce at the leaves (the
    substrate ships closures). *)
val skyline_scan_supported : t -> bool

(** [oid_scan_reduce t ~origin ~pred ~reduce ~k] scans the OID region
    (where all triples of one logical tuple share a single key and are
    therefore collocated on one peer), keeps triples matching [pred] and
    runs [reduce] at {e each leaf} over its locally matched triples
    before the reply travels back — the skyline-pushdown primitive: a
    leaf-local partial skyline drops dominated tuples at the source.
    [reduce] must only drop triples, never invent them; because tuples
    are collocated, any per-tuple decision it makes (e.g. "this tuple is
    incomplete" or "this tuple is dominated by a co-located one") is
    globally sound. Falls back to an unreduced broadcast when
    unsupported. *)
val oid_scan_reduce :
  t ->
  origin:int ->
  pred:(Triple.t -> bool) ->
  reduce:(Triple.t list -> Triple.t list) ->
  k:(Triple.t list * Dht.result -> unit) ->
  unit

(** [similar t ~origin ?attr ~pattern ~d]: triples whose string value is
    within edit distance [d] of [pattern] (restricted to [attr] when
    given). Uses the q-gram index when it can guarantee completeness
    ([pattern] long enough relative to [d]); falls back to flooding
    otherwise or when the index is disabled. *)
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
    containing value's indexed gram set); floods otherwise. *)
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
val add_mapping_sync : t -> origin:int -> string -> string -> bool

(** Transitive closure (bounded depth) of [sys:maps_to] around [attr];
    always contains [attr] itself. *)
val equivalent_attrs : t -> origin:int -> string -> k:(string list -> unit) -> unit

val equivalent_attrs_sync : t -> origin:int -> string -> string list

(** {2 Synchronous wrappers} *)

val by_oid_sync : t -> origin:int -> string -> Triple.t list * meta
val by_attr_value_sync : t -> origin:int -> attr:string -> Value.t -> Triple.t list * meta

val by_attr_range_sync :
  t -> origin:int -> attr:string -> lo:Value.t -> hi:Value.t -> Triple.t list * meta

val by_attr_all_sync : t -> origin:int -> attr:string -> Triple.t list * meta

val by_attr_string_prefix_sync :
  t -> origin:int -> attr:string -> string_prefix:string -> Triple.t list * meta

val by_value_sync : t -> origin:int -> Value.t -> Triple.t list * meta
val scan_sync : t -> origin:int -> pred:(Triple.t -> bool) -> Triple.t list * meta

val oid_scan_reduce_sync :
  t ->
  origin:int ->
  pred:(Triple.t -> bool) ->
  reduce:(Triple.t list -> Triple.t list) ->
  Triple.t list * meta
val similar_sync : t -> origin:int -> ?attr:string -> pattern:string -> d:int -> unit -> Triple.t list * meta

val containing_sync :
  t -> origin:int -> ?attr:string -> pattern:string -> unit -> Triple.t list * meta
