(** Exact wire sizes of item lists and row batches.

    Every message that carries items ({!Message.size}, and the Chord
    baseline's [msg_size]) charges them by the length of one concrete
    encoding, and so does every carrier hop of a mutant query plan for
    the rows it ships; bandwidth figures are bytes a decoder could read
    back, not a per-item or per-row guess. The items are coded one after
    another, in list order:

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

(** {2 Row batches}

    A batch of rows that all bind the same variables (the intermediate
    results a mutant plan carries) is coded as:

    - a varint for the number of variables, then each name as a string
      field;
    - a varint for the number of rows;
    - then each row's values, in the names' order, each a string field
      holding the value's typed encoding ([Value.encode]).

    String fields follow the rule above, numbered across the whole
    batch: the names 0 to [k - 1], then the values. A name or value
    that repeats costs a one- or two-byte back-reference, so each name
    is paid once per batch and a value shared by many rows (a join key,
    a conference) once per distance. An empty batch is two bytes. *)

(** [rows_bytes ~encode names iter rows] is the length of the encoding
    above of [rows], on the variables [names]. [iter f row] calls [f] on
    each of [row]'s values in the names' order, and [encode v] is the
    bytes of [v]'s field. Raises [Invalid_argument] if a row has more or
    fewer values than [names]. Sizing builds no list and shares the
    table of {!items_bytes}; it allocates only what [encode] does, and
    a batch that grows the table past the size item lists gave it.
    When it returns, the table holds none of the batch's strings and
    has its size from before the batch. *)
val rows_bytes :
  encode:('v -> string) -> string list -> (('v -> unit) -> 'r -> unit) -> 'r list -> int
