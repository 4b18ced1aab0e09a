(* E-store: storage-backend shootout -> BENCH_store.json.

   One Zipf-keyed triple dataset (repeated (attr,value) index keys,
   unique ids/payloads — the shape the triple layer actually stores) is
   loaded into each backend behind {!Unistore_pgrid.Store_intf}: the
   hash reference, the file-backed log, and the dictionary-packed
   in-memory layout. Measured per backend:

   - bytes/triple from [Store.stats] (the same deterministic memory
     model the tests assert on, not GC sampling);
   - insert, point-lookup and prefix-scan throughput in REAL seconds
     (like exp_scale, host throughput is the point here);
   - crash-restart recall: items recovered after [Store.crash_restart]
     as a fraction of items held — 1.0 for a clean log replay, lower
     with an injected torn tail, 0.0 for the memory-only backends
     (their recovery path is repair/anti-entropy, exercised in
     test/test_store.ml, not local replay).

   Regenerate with `make bench-store`; the CI gate is `store-smoke`. *)

module Rng = Unistore_util.Rng
module Zipf = Unistore_util.Zipf
module Json = Unistore_obs.Json
module Store = Unistore_pgrid.Store

let out_file = "BENCH_store.json"

(* ------------------------------------------------------------------ *)
(* Dataset and log housekeeping                                        *)

let make_items n =
  let rng = Rng.create 7 in
  let z = Zipf.create ~n:5_000 ~s:1.1 in
  Array.init n (fun i ->
      let rank = Zipf.sample z rng in
      {
        Store.key = Printf.sprintf "pubs#value#%05d" rank;
        item_id = Printf.sprintf "oid%06d" i;
        payload = Printf.sprintf "{\"oid\":%d,\"attr\":\"value\",\"rank\":%d}" i rank;
        version = 0;
      })

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_log_dir f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "unistore-bench-store" in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)

type point = {
  label : string;
  triples : int;
  bytes_per_triple : float;
  insert_s : float;
  inserts_per_s : float;
  lookups_per_s : float;
  scan_items_per_s : float;
  recall_clean : float;
  recall_torn : float;
}

let throughput ops seconds = if seconds > 0.0 then float_of_int ops /. seconds else 0.0

let measure ~items ~lookups store =
  let n = Array.length items in
  let t0 = Unix.gettimeofday () in
  Array.iter (fun it -> ignore (Store.put store it)) items;
  let insert_s = Unix.gettimeofday () -. t0 in
  let stats = Store.stats store in
  (* Point lookups over the Zipf-hot key set. *)
  let lrng = Rng.create 13 in
  let t0 = Unix.gettimeofday () in
  let hits = ref 0 in
  for _ = 1 to lookups do
    let it = items.(Rng.int lrng n) in
    if Store.find store it.Store.key <> [] then incr hits
  done;
  let lookup_s = Unix.gettimeofday () -. t0 in
  if !hits < lookups then failwith "bench store: point lookup missed a stored key";
  (* Prefix scans: ten passes over the whole attribute region. *)
  let t0 = Unix.gettimeofday () in
  let scanned = ref 0 in
  for _ = 1 to 10 do
    scanned := !scanned + List.length (Store.with_prefix store "pubs#value#")
  done;
  let scan_s = Unix.gettimeofday () -. t0 in
  if !scanned <> 10 * n then failwith "bench store: prefix scan lost items";
  (* Crash-restart recall: clean, then with a torn tail over a reload. *)
  let held = Store.size store in
  let recall_clean = float_of_int (Store.crash_restart store) /. float_of_int held in
  let recall_torn =
    match Store.kind store with
    | Store.Log _ ->
      (* Fresh log, then tear half of it: clearing first keeps the
         replayed-and-reloaded log from still covering every item. *)
      Store.clear store;
      Array.iter (fun it -> ignore (Store.put store it)) items;
      float_of_int (Store.crash_restart ~keep_frac:0.5 store) /. float_of_int held
    | _ -> 0.0
  in
  {
    label = Store.backend_label (Store.kind store);
    triples = stats.Store.triples;
    bytes_per_triple = float_of_int stats.Store.bytes /. float_of_int n;
    insert_s;
    inserts_per_s = throughput n insert_s;
    lookups_per_s = throughput lookups lookup_s;
    scan_items_per_s = throughput !scanned scan_s;
    recall_clean;
    recall_torn;
  }

let measure_all ~n ~lookups dir =
  let items = make_items n in
  List.map
    (measure ~items ~lookups)
    [
      Store.create ();
      Store.create ~backend:(Store.Log { dir }) ~name:"bench" ();
      Store.create ~backend:Store.Packed ();
    ]

let point_json p =
  Json.Obj
    [
      ("backend", Json.Str p.label);
      ("triples", Json.Int p.triples);
      ("bytes_per_triple", Json.Float p.bytes_per_triple);
      ("insert_wall_s", Json.Float p.insert_s);
      ("inserts_per_s", Json.Float p.inserts_per_s);
      ("lookups_per_s", Json.Float p.lookups_per_s);
      ("scan_items_per_s", Json.Float p.scan_items_per_s);
      ("crash_restart_recall_clean", Json.Float p.recall_clean);
      ("crash_restart_recall_torn_half", Json.Float p.recall_torn);
    ]

let print_points points =
  Common.print_table
    [ "backend"; "triples"; "B/triple"; "ins/s"; "find/s"; "scan items/s"; "recall"; "torn" ]
    (List.map
       (fun p ->
         [
           p.label;
           Common.i p.triples;
           Common.f1 p.bytes_per_triple;
           Printf.sprintf "%.0f" p.inserts_per_s;
           Printf.sprintf "%.0f" p.lookups_per_s;
           Printf.sprintf "%.0f" p.scan_items_per_s;
           Common.f2 p.recall_clean;
           Common.f2 p.recall_torn;
         ])
       points)

let find_point points label = List.find (fun p -> String.equal p.label label) points

let check_invariants ~n points =
  let hash = find_point points "hash"
  and log = find_point points "log"
  and packed = find_point points "packed" in
  List.iter
    (fun p ->
      if p.triples <> n then
        failwith (Printf.sprintf "bench store: %s holds %d/%d triples" p.label p.triples n))
    points;
  if packed.bytes_per_triple >= hash.bytes_per_triple then
    failwith
      (Printf.sprintf "bench store: packed (%.1f B/triple) not below hash (%.1f B/triple)"
         packed.bytes_per_triple hash.bytes_per_triple);
  if log.recall_clean < 1.0 then failwith "bench store: clean log replay lost items";
  if log.recall_torn >= 1.0 then failwith "bench store: torn tail lost nothing"

let run () =
  Common.section "STORE: storage-backend shootout"
    "a universal storage must hold arbitrary triples cheaply (section 3) — compare the \
     hash reference against the log-structured and dictionary-packed backends";
  let n = 100_000 and lookups = 50_000 in
  with_log_dir (fun dir ->
      let points = measure_all ~n ~lookups dir in
      print_points points;
      check_invariants ~n points;
      let doc =
        Json.Obj
          [
            ("schema_version", Json.Int 1);
            ( "description",
              Json.Str
                "Storage-backend shootout: one 100k-triple Zipf-keyed dataset (5000 \
                 distinct index keys, s=1.1, unique ids/payloads) loaded into each \
                 Store_intf backend. bytes_per_triple comes from Store.stats (the \
                 deterministic memory model, not GC sampling); throughputs are REAL \
                 seconds on the build host; crash_restart_recall_* is the fraction of \
                 held items recovered by Store.crash_restart (log: replay, clean and \
                 with half the log torn; hash/packed: memory-only, 0.0 — overlay-level \
                 recovery is repair/anti-entropy). Regenerate with `make bench-store`. \
                 See EXPERIMENTS.md, section 'Storage'." );
            ( "config",
              Json.Obj
                [
                  ("triples", Json.Int n);
                  ("distinct_keys", Json.Int 5_000);
                  ("zipf_s", Json.Float 1.1);
                  ("lookups", Json.Int lookups);
                  ("scan_passes", Json.Int 10);
                ] );
            ("backends", Json.Arr (List.map point_json points));
          ]
      in
      let oc = open_out out_file in
      output_string oc (Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s\n" out_file)

(* Linearity guard: average minor-heap words per put while filling one
   fresh key with 1k and with 16k new ids. Counting allocation instead
   of timing keeps it deterministic: an insert that walks or rebuilds
   the key's items grows ~16x between the two sizes, a constant-time
   insert stays flat. *)
let words_per_put store n =
  let items =
    Array.init n (fun i ->
        { Store.key = "hot#key"; item_id = Printf.sprintf "id%06d" i; payload = "payload"; version = 0 })
  in
  let before = Gc.minor_words () in
  Array.iter (fun it -> ignore (Store.put store it)) items;
  (Gc.minor_words () -. before) /. float_of_int n

let check_linearity dir =
  let rows =
    List.map
      (fun backend ->
        let fresh name = Store.create ~backend ~name () in
        let small = words_per_put (fresh "lin-small") 1_000 in
        let large = words_per_put (fresh "lin-large") 16_000 in
        (Store.backend_label backend, small, large))
      [ Store.Hash; Store.Log { dir }; Store.Packed ]
  in
  Common.print_table
    [ "backend"; "words/put 1k"; "words/put 16k"; "ratio" ]
    (List.map
       (fun (label, small, large) ->
         [ label; Common.f1 small; Common.f1 large; Common.f2 (large /. small) ])
       rows);
  List.iter
    (fun (label, small, large) ->
      if large /. small > 1.5 then
        failwith
          (Printf.sprintf "bench store: %s put is not constant-time (%.0f -> %.0f words/put)" label
             small large))
    rows

(* CI gate: the three backends must agree on content, packed must stay
   below hash on bytes/triple, the log must replay cleanly and every
   put must stay constant-time under one hot key — at a size small
   enough to run in seconds, without touching the file. *)
let run_smoke () =
  Common.section "STORE (smoke)" "backend invariants hold on a small Zipf dataset";
  let n = 10_000 in
  with_log_dir (fun dir ->
      let points = measure_all ~n ~lookups:2_000 dir in
      print_points points;
      check_invariants ~n points;
      check_linearity dir;
      Printf.printf
        "\nstore-smoke OK: all backends hold %d triples, packed < hash, log replays, puts flat to 16k per key\n"
        n)
