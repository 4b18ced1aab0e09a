(* The storage-backend contract shared by every per-peer store
   implementation (ROADMAP item 3).

   The overlay, the repair/anti-entropy machinery and the triple layer
   above all talk to {!Store}, which dispatches to one of three
   backends implementing this signature:

   - {!Backend_hash}: the ordered-map store — the default, and the
     reference implementation the differential test harness replays
     every backend against. A new id is prepended in O(1) however hot
     its key: keys above {!Id_filter.min_ids} items carry an
     exact-negative {!Id_filter} over their ids, whose "maybe present"
     falls back to the exact walk;
   - {!Backend_log}: a file-backed log-structured store (append-only
     records + the hash store as its in-memory index). Survives
     crash-restart: a revived peer replays its log and lets
     anti-entropy/{!Repair} reconcile whatever a torn tail lost;
   - {!Backend_packed}: a compressed in-memory store — repeated index
     keys dictionary-encoded into a shared byte arena, items flattened
     into int columns over raw arena spans, with a sorted slot index
     for binary-searched prefix/range lookups, after "Compressed
     Vertical Partitioning for Full-In-Memory RDF Management"
     (PAPERS.md); hot keys use the same {!Id_filter} guard on insert.

   Ordering contract (load-bearing — see the differential suite in
   test/test_store.ml): every scan (find/range/with_prefix/iter/
   to_list) yields items in ascending key order, and items sharing a
   key in newest-first order of their first insertion, with an LWW
   update leaving its item's position unchanged. Call sites above the
   interface (e.g. {!Unistore_triple.Tstore}'s first-seen dedup of
   lookup replies) silently rely on replies being deterministic and
   identical across backends; making the order part of the signature
   turns that latent assumption into a tested contract. [digest] and
   [filter_partition] results are order-unspecified (all consumers are
   order-insensitive: digest feeds a hashtable, partition results are
   summed or discarded). *)

type item = { key : string; item_id : string; payload : string; version : int }

(* Memory accounting, from the same model the tests and BENCH_store.json
   check: [bytes] estimates the resident heap cost of the stored items
   (records, string headers and padding, container overhead, hot-key id
   filters — not GC-measured, so it is deterministic and comparable
   across backends); [triples] counts live items. *)
type stats = { bytes : int; triples : int }

(* Backend selection, threaded from [Unistore.config.store] / CLI
   [--backend] through {!Config.t.store_backend} down to
   {!Node.create}. [Log] stores each peer's segments as one append-only
   file under [dir] (created on demand). *)
type backend = Hash | Log of { dir : string } | Packed

let backend_label = function
  | Hash -> "hash"
  | Log _ -> "log"
  | Packed -> "packed"

(* Heap bytes of one immutable string: header word + data padded to a
   whole word with at least one terminator byte. *)
let string_bytes s = 8 + (8 * ((String.length s / 8) + 1))

(* Heap bytes of one boxed [item] record: header + 4 fields. *)
let item_record_bytes = 40

module type S = sig
  type t

  (* [put t item] inserts or updates: an existing entry with the same
     [(key, item_id)] is replaced iff the new version is greater or
     equal (idempotent-retry semantics). Returns [false] iff the write
     was stale. *)
  val put : t -> item -> bool

  val remove : t -> key:string -> item_id:string -> unit
  val find : t -> string -> item list
  val range : t -> lo:string -> hi:string -> item list
  val with_prefix : t -> string -> item list
  val size : t -> int
  val iter : t -> (item -> unit) -> unit
  val to_list : t -> item list
  val filter_partition : t -> (item -> bool) -> item list
  val digest : t -> (string * string * int) list
  val clear : t -> unit
  val stats : t -> stats
end
