(** Exact wire sizes of item lists.

    Every message that carries items ({!Message.size}, and the Chord
    baseline's [msg_size]) charges them by the length of one concrete
    encoding, so bandwidth figures are bytes a decoder could read back,
    not a per-item guess. The items are coded one after another, in
    list order:

    - the key, front-coded against the previous item's key (the first
      against [prev]): a varint for the length of the prefix they
      share, a varint for the length of the rest, then the rest;
    - the id, then the payload, each a {e string field}. The fields of
      a list are numbered in coding order (id 0, payload 0, id 1, ...).
      A field is either a literal, varint [2 * len] then the bytes, or a
      back-reference to the latest earlier field holding the same
      string, varint [2 * d + 1], where [d] counts the fields between
      the two. The shorter of the two is written, the back-reference
      on a tie;
    - the version, as a varint.

    A varint is LEB128: seven bits per byte, low bits first; a negative
    version is coded as its unsigned 63-bit pattern. The item count is
    not included: it rides in the message envelope ({!Message.header}).

    Back-references to the {e latest} occurrence make a batch never
    longer than its items coded one per message: an item's payload
    equal to its id costs one byte wherever it stands. *)

(** [items_bytes ?prev items] is the length of the encoding above;
    [prev] (default [""]) is the key the first key is front-coded
    against. Sizing allocates nothing once its table has grown to the
    largest list seen. *)
val items_bytes : ?prev:string -> Store.item list -> int
