type range_strategy = Shower | Sequential

let pp_strategy fmt = function
  | Shower -> Format.pp_print_string fmt "shower"
  | Sequential -> Format.pp_print_string fmt "sequential"

type t =
  | Insert of { rid : int; item : Store.item; origin : int; hops : int }
  | Update of { rid : int; item : Store.item; origin : int; hops : int; rounds : int }
  | Delete of { rid : int; key : string; item_id : string; origin : int; hops : int }
  | Replicate of { item : Store.item; rounds_left : int }
  | Unreplicate of { key : string; item_id : string }
  | Ack of { rid : int; hops : int; region : string * string option }
  | Lookup of { rid : int; key : string; origin : int; hops : int }
  | Found of {
      rid : int;
      items : Store.item list;
      hops : int;
      region : string * string option;
      spread : int list;
          (** other peers currently serving [region] (replicas and
              hot-path boosts); origins in spread mode learn them all as
              shortcut targets. Empty unless hot-path replication is on. *)
    }
  | Range of {
      rid : int;
      token : int;  (** unique per message; echoed by the receiver's hit *)
      lo : string;
      hi : string;
      clip_lo : string;  (** inclusive *)
      clip_hi : string option;  (** exclusive; [None] = unbounded *)
      origin : int;
      reply_to : int;
      hops : int;
      strategy : range_strategy;
      budget : int option;
          (** remaining result budget for sequential top-N traversals:
              stop forwarding once this many items were produced *)
    }
  | RangeHit of {
      rid : int;
      token : int;
      items : Store.item list;
      targets : int list;
      origin : int;
      hops : int;
    }
  | InsertBatch of { rid : int; items : Store.item list; origin : int; hops : int }
  | AckBatch of { rid : int; keys : string list; region : string * string option; hops : int }
  | MultiLookup of { rid : int; keys : string list; origin : int; hops : int }
  | MultiFound of {
      rid : int;
      found : (string * Store.item list) list;
      region : string * string option;
      hops : int;
    }
  | Probe of {
      rid : int;
      token : int;
      clip_lo : string;
      clip_hi : string option;
      origin : int;
      hops : int;
      pred : Store.item -> bool;
      reduce : (Store.item list -> Store.item list) option;
          (** leaf-side partial reduction applied to the locally matched
              items before they are sent back (e.g. a local skyline, so
              dominated rows never cross the network); must only drop
              items, never invent them *)
    }
  | Task of { bytes : int; run : int -> unit }
  | SyncDigest of { digest : (string * string * int) list }
  | SyncRequest of { wanted : (string * string) list }
  | SyncItems of { items : Store.item list }
  | StatGossip of { summaries : Unistore_cache.Statcache.summary list }
  | HotSync of {
      region : string * string option;
      owner : int;
      spread : int list;  (** full serving set for [region], owner included *)
      items : Store.item list;  (** current content of the owner's region *)
      retire : bool;  (** [true] = stop boosting [region] instead *)
    }
  | Exchange of { bytes : int; run : int -> unit }

let hop_limited = -1

let header = 20

let items_bytes items = List.fold_left (fun acc i -> acc + Store.item_bytes i) 0 items

let region_bytes (lo, hi) =
  String.length lo + (match hi with Some h -> String.length h | None -> 0) + 2

let size = function
  | Insert { item; _ } -> header + Store.item_bytes item
  | Update { item; _ } -> header + Store.item_bytes item
  | Delete { key; item_id; _ } -> header + String.length key + String.length item_id
  | Replicate { item; _ } -> header + Store.item_bytes item
  | Unreplicate { key; item_id } -> header + String.length key + String.length item_id
  | Ack { region; _ } -> header + region_bytes region
  | Lookup { key; _ } -> header + String.length key
  | Found { items; region; spread; _ } ->
    header + items_bytes items + region_bytes region + (4 * List.length spread)
  | Range { lo; hi; _ } -> header + 16 + String.length lo + String.length hi
  | RangeHit { items; targets; _ } -> header + items_bytes items + (4 * List.length targets)
  | InsertBatch { items; _ } -> header + items_bytes items
  | AckBatch { keys; region; _ } ->
    header + List.fold_left (fun acc k -> acc + String.length k) 0 keys + region_bytes region
  | MultiLookup { keys; _ } ->
    header + List.fold_left (fun acc k -> acc + String.length k) 0 keys
  | MultiFound { found; region; _ } ->
    header
    + List.fold_left (fun acc (k, items) -> acc + String.length k + items_bytes items) 0 found
    + region_bytes region
  | Probe _ -> header + 32
  | Task { bytes; _ } -> header + bytes
  | SyncDigest { digest } ->
    header
    + List.fold_left (fun acc (k, id, _) -> acc + String.length k + String.length id + 8) 0 digest
  | SyncRequest { wanted } ->
    header + List.fold_left (fun acc (k, id) -> acc + String.length k + String.length id) 0 wanted
  | SyncItems { items } -> header + items_bytes items
  | StatGossip { summaries } ->
    header
    + List.fold_left
        (fun acc s -> acc + Unistore_cache.Statcache.summary_bytes s)
        0 summaries
  | HotSync { region; spread; items; _ } ->
    header + region_bytes region + (4 * List.length spread) + 5 + items_bytes items
  | Exchange { bytes; _ } -> header + bytes

(* Correlation id for request/reply trace linting: the protocol's [rid]
   where the message carries one, [-1] for fire-and-forget traffic
   (replication, anti-entropy, shipped closures). *)
let corr = function
  | Insert { rid; _ }
  | Update { rid; _ }
  | Delete { rid; _ }
  | Ack { rid; _ }
  | Lookup { rid; _ }
  | Found { rid; _ }
  | Range { rid; _ }
  | RangeHit { rid; _ }
  | InsertBatch { rid; _ }
  | AckBatch { rid; _ }
  | MultiLookup { rid; _ }
  | MultiFound { rid; _ }
  | Probe { rid; _ } ->
    rid
  | Replicate _ | Unreplicate _ | Task _ | SyncDigest _ | SyncRequest _ | SyncItems _
  | StatGossip _ | HotSync _ | Exchange _ ->
    -1

let kind = function
  | Insert _ -> "insert"
  | Update _ -> "update"
  | Delete _ -> "delete"
  | Replicate _ -> "replicate"
  | Unreplicate _ -> "unreplicate"
  | Ack _ -> "ack"
  | Lookup _ -> "lookup"
  | Found _ -> "found"
  | Range _ -> "range"
  | RangeHit _ -> "range-hit"
  | InsertBatch _ -> "insert-batch"
  | AckBatch _ -> "ack-batch"
  | MultiLookup _ -> "multi-lookup"
  | MultiFound _ -> "multi-found"
  | Probe _ -> "probe"
  | Task _ -> "task"
  | SyncDigest _ -> "sync-digest"
  | SyncRequest _ -> "sync-request"
  | SyncItems _ -> "sync-items"
  | StatGossip _ -> "stat-gossip"
  | HotSync _ -> "hot-sync"
  | Exchange _ -> "exchange"
