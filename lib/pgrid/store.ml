(* Facade over the pluggable storage backends (see {!Store_intf} for
   the contract and {!Backend_hash}/{!Backend_log} for the
   implementations). Call sites are backend-agnostic; the
   variant dispatch below is the whole cost of pluggability. *)

type item = Store_intf.item = {
  key : string;
  item_id : string;
  payload : string;
  version : int;
}

type stats = Store_intf.stats = { bytes : int; triples : int }
type backend = Store_intf.backend = Hash | Log of { dir : string }

let backend_label = Store_intf.backend_label

let pp_item fmt (i : item) =
  Format.fprintf fmt "{key=%S id=%s v=%d payload=%S}" i.key i.item_id i.version i.payload

let item_bytes (i : item) =
  24 + String.length i.key + String.length i.item_id + String.length i.payload

(* [gen] is the store's generation (see {!generation}). It lives here,
   not in the backends: the log backend rebuilds its in-memory index on
   reopen, so a backend-side counter could restart and match a stale
   memo. An inline record keeps it at one extra word per store. *)
type t =
  | H of { b : Backend_hash.t; mutable gen : int }
  | L of { b : Backend_log.t; mutable gen : int }

(* Distinguishes log files when several stores share a dir and the
   caller gives no [name] (tests, ad-hoc stores). Deterministic: resets
   with the process, and named stores (one per peer id) don't use it. *)
let anon_counter = ref 0

let create ?(backend = Hash) ?name () =
  match backend with
  | Hash -> H { b = Backend_hash.create (); gen = 0 }
  | Log { dir } ->
    let base =
      match name with
      | Some n -> n
      | None ->
        incr anon_counter;
        Printf.sprintf "store-%d" !anon_counter
    in
    L { b = Backend_log.create ~path:(Filename.concat dir (base ^ ".log")); gen = 0 }

let kind = function
  | H _ -> Hash
  | L { b; _ } -> Log { dir = Filename.dirname (Backend_log.path b) }

let generation = function H { gen; _ } | L { gen; _ } -> gen

let bump = function
  | H r -> r.gen <- r.gen + 1
  | L r -> r.gen <- r.gen + 1

let put t i =
  bump t;
  match t with
  | H { b; _ } -> Backend_hash.put b i
  | L { b; _ } -> Backend_log.put b i

let remove t ~key ~item_id =
  bump t;
  match t with
  | H { b; _ } -> Backend_hash.remove b ~key ~item_id
  | L { b; _ } -> Backend_log.remove b ~key ~item_id

let find t key =
  match t with
  | H { b; _ } -> Backend_hash.find b key
  | L { b; _ } -> Backend_log.find b key

let range t ~lo ~hi =
  match t with
  | H { b; _ } -> Backend_hash.range b ~lo ~hi
  | L { b; _ } -> Backend_log.range b ~lo ~hi

let with_prefix t prefix =
  match t with
  | H { b; _ } -> Backend_hash.with_prefix b prefix
  | L { b; _ } -> Backend_log.with_prefix b prefix

let size = function
  | H { b; _ } -> Backend_hash.size b
  | L { b; _ } -> Backend_log.size b

let iter t f =
  match t with
  | H { b; _ } -> Backend_hash.iter b f
  | L { b; _ } -> Backend_log.iter b f

let to_list = function
  | H { b; _ } -> Backend_hash.to_list b
  | L { b; _ } -> Backend_log.to_list b

let filter_partition t pred =
  bump t;
  match t with
  | H { b; _ } -> Backend_hash.filter_partition b pred
  | L { b; _ } -> Backend_log.filter_partition b pred

let digest = function
  | H { b; _ } -> Backend_hash.digest b
  | L { b; _ } -> Backend_log.digest b

let clear t =
  bump t;
  match t with
  | H { b; _ } -> Backend_hash.clear b
  | L { b; _ } -> Backend_log.clear b

let stats = function
  | H { b; _ } -> Backend_hash.stats b
  | L { b; _ } -> Backend_log.stats b

let log_path = function L { b; _ } -> Some (Backend_log.path b) | H _ -> None
let log_bytes = function L { b; _ } -> Backend_log.log_bytes b | H _ -> 0
let sync = function L { b; _ } -> Backend_log.sync b | H _ -> ()

(* Crash + restart in one step. The hash backend loses everything (a
   crashed peer restarts cold). The log backend replays its file:
   [keep_frac] injects the torn tail first — the fraction of log bytes
   that survived the crash, cut at an arbitrary byte offset — and the
   replay recovers every record fully contained in the surviving
   prefix. Returns the number of recovered items. *)
let crash_restart ?keep_frac t =
  bump t;
  match t with
  | H { b; _ } ->
    Backend_hash.clear b;
    0
  | L { b; _ } ->
    Backend_log.crash b;
    (match keep_frac with
    | Some f ->
      let keep = int_of_float (f *. float_of_int (Backend_log.log_bytes b)) in
      Backend_log.truncate_tail b ~keep_bytes:keep
    | None -> ());
    Backend_log.reopen b
