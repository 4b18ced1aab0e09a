(** Distributed trie index for range queries over Chord.

    Chord's placement hash destroys key order, so range queries need an
    additional structure: "in Chord an additional trie-structure is
    constructed on top of its ring-based overlay to support range queries"
    (paper §2). This module hosts that trie {e inside} the DHT itself:

    - a trie node for hex-digit prefix [p] is the set of items stored
      under key ["T:" ^ p], one item per present child digit;
    - leaf buckets at depth {!depth} store the actual data items under
      ["B:" ^ p].

    Every insert therefore costs [depth + 1] DHT puts (each O(log n)
    hops; the items of a batch share their markers), and a range query
    is a client-driven parallel DFS of the trie, one DHT get per
    visited trie node — this is exactly the overhead the
    paper's P-Grid-native ranges avoid. *)

module Store = Unistore_pgrid.Store

(** Trie depth in hex digits (4 bits per level). *)
val depth : int

(** First {!depth} hex digits of an encoded key (bucket address). *)
val hex_of_key : string -> string

(** Unwrap a bucket payload into [(original_key, original_payload)]. *)
val decode_payload : string -> (string * string) option

(** [wrap_id ~key item_id] is the id a bucket stores [item_id] under
    for [key]. *)
val wrap_id : key:string -> string -> string

(** [wrap_item i] is the bucket item that stores [i]: key ["B:"] ^
    [hex_of_key i.key], id [wrap_id ~key:i.key i.item_id], and a payload
    that embeds [i]'s key before its payload. *)
val wrap_item : Store.item -> Store.item

(** [unwrap_item i] is the caller's view of bucket item [i]: its
    original key, id and payload ([None] on a malformed payload). The
    original id is [i]'s with the wrapped [#key] suffix stripped, so ids
    that contain ['#'] come back whole. *)
val unwrap_item : Store.item -> Store.item option

(** [bulk_insert chord ~origin ~items ~k] stores a batch and threads it
    through the trie: one put per distinct trie marker of the batch and
    one per item's bucket entry, all in flight at once. [k] gets their
    combined cost ({!Store.side_by_side}): complete iff every put was
    acked. *)
val bulk_insert :
  Chord.t -> origin:int -> items:Store.item list -> k:(Chord.result -> unit) -> unit

(** [insert chord ~origin ~key ~item_id ~payload ()] is the one-item
    {!bulk_insert}. The continuation receives [false] if any
    constituent put failed. *)
val insert :
  Chord.t ->
  origin:int ->
  key:string ->
  item_id:string ->
  payload:string ->
  ?version:int ->
  k:(bool -> unit) ->
  unit ->
  unit

(** [range chord ~origin ~lo ~hi ~k] retrieves all items with
    [lo <= key <= hi] by DFS over the trie. The result's [peers_hit] counts
    DHT gets issued. *)
val range : Chord.t -> origin:int -> lo:string -> hi:string -> k:(Chord.result -> unit) -> unit
