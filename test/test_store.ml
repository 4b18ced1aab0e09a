(* Differential tests for the pluggable storage backends (Store_intf):
   every observable operation replayed against all three backends —
   hash (the reference), log (file-backed, crash-restart capable) and
   packed (dictionary-compressed) — plus an independent sorted-list
   model, asserting identical observable state after every batch. Also
   covers the log backend's torn-tail crash-restart machinery, the
   overlay-level crash/repair/anti-entropy recovery path, the packed
   backend's compression accounting, and same-seed determinism with
   the log backend enabled. *)

open Unistore_util
module Sim = Unistore_sim.Sim
module Latency = Unistore_sim.Latency
module Net = Unistore_sim.Net
module Trace = Unistore_sim.Trace
module Faults = Unistore_sim.Faults
module Metrics = Unistore_obs.Metrics
module Store = Unistore_pgrid.Store
module Node = Unistore_pgrid.Node
module Config = Unistore_pgrid.Config
module Overlay = Unistore_pgrid.Overlay
module Build = Unistore_pgrid.Build
module Gossip = Unistore_pgrid.Gossip
module Repair = Unistore_pgrid.Repair
module Id_filter = Unistore_pgrid.Id_filter

let check = Alcotest.check

let item ?(version = 0) key item_id payload = { Store.key; item_id; payload; version }

(* ------------------------------------------------------------------ *)
(* Temp log directories: created under the dune sandbox cwd, removed
   at the end of each test so runtest stays hermetic. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_log_dir name f =
  let dir = Filename.concat (Sys.getcwd ()) ("store-logs-" ^ name) in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Reference model: a plain item list kept in reverse first-insertion
   order (newest first), deliberately nothing like any backend. Scans
   derive from a stable sort by key: keys ascending, and — because the
   list is globally newest-first and the sort is stable — newest-first
   within each key, with LWW updates replacing in place (position
   preserved). This is the ordering contract of Store_intf. *)

module Model = struct
  type t = { mutable entries : Store.item list }

  let create () = { entries = [] }

  let put m (it : Store.item) =
    let found = ref false and stale = ref false in
    let entries =
      List.map
        (fun (e : Store.item) ->
          if String.equal e.Store.key it.Store.key && String.equal e.Store.item_id it.Store.item_id
          then begin
            found := true;
            if it.Store.version >= e.Store.version then it
            else begin
              stale := true;
              e
            end
          end
          else e)
        m.entries
    in
    if !stale then false
    else begin
      m.entries <- (if !found then entries else it :: entries);
      true
    end

  let remove m ~key ~item_id =
    m.entries <-
      List.filter
        (fun (e : Store.item) ->
          not (String.equal e.Store.key key && String.equal e.Store.item_id item_id))
        m.entries

  let to_list m =
    List.stable_sort
      (fun (a : Store.item) b -> String.compare a.Store.key b.Store.key)
      m.entries

  let size m = List.length m.entries
  let find m key = List.filter (fun (i : Store.item) -> String.equal i.Store.key key) (to_list m)

  let range m ~lo ~hi =
    if String.compare lo hi > 0 then []
    else
      List.filter
        (fun (i : Store.item) ->
          String.compare i.Store.key lo >= 0 && String.compare i.Store.key hi <= 0)
        (to_list m)

  let with_prefix m prefix =
    let plen = String.length prefix in
    List.filter
      (fun (i : Store.item) ->
        String.length i.Store.key >= plen && String.equal (String.sub i.Store.key 0 plen) prefix)
      (to_list m)

  let filter_partition m pred =
    let keep, out = List.partition pred (to_list m) in
    m.entries <- List.filter pred m.entries;
    ignore keep;
    out

  let digest m =
    List.map (fun (i : Store.item) -> (i.Store.key, i.Store.item_id, i.Store.version)) (to_list m)

  let clear m = m.entries <- []
end

(* ------------------------------------------------------------------ *)
(* Observation rendering: everything observable about a store, as one
   string, so a differential mismatch names the backend and shows both
   states. *)

let item_str (i : Store.item) =
  Printf.sprintf "%S/%s/%S/%d" i.Store.key i.Store.item_id i.Store.payload i.Store.version

let items_str l = String.concat ";" (List.map item_str l)

let digest_entry_cmp (k1, i1, v1) (k2, i2, v2) =
  match String.compare k1 k2 with
  | 0 -> ( match String.compare i1 i2 with 0 -> Int.compare v1 v2 | c -> c)
  | c -> c

let digest_str d =
  List.sort digest_entry_cmp d
  |> List.map (fun (k, i, v) -> Printf.sprintf "%S/%s/%d" k i v)
  |> String.concat ";"

(* The probe set drives point/range/prefix observations; traces draw
   keys from the same pool so probes actually hit. *)
let observe ~to_list ~size ~find ~range ~with_prefix ~digest probes =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "size=%d\n" size);
  Buffer.add_string b ("all=" ^ items_str to_list ^ "\n");
  List.iter (fun k -> Buffer.add_string b (Printf.sprintf "find(%s)=%s\n" k (items_str (find k)))) probes;
  (match probes with
  | lo :: _ ->
    let hi = List.fold_left (fun a k -> if String.compare k a > 0 then k else a) lo probes in
    let lo = List.fold_left (fun a k -> if String.compare k a < 0 then k else a) lo probes in
    Buffer.add_string b (Printf.sprintf "range(%s,%s)=%s\n" lo hi (items_str (range ~lo ~hi)));
    Buffer.add_string b (Printf.sprintf "range1(%s)=%s\n" lo (items_str (range ~lo:lo ~hi:lo)));
    Buffer.add_string b
      (Printf.sprintf "range_inv=%s\n" (items_str (if String.equal lo hi then [] else range ~lo:hi ~hi:lo)))
  | [] -> ());
  List.iter
    (fun k ->
      let p = String.sub k 0 (min 2 (String.length k)) in
      Buffer.add_string b (Printf.sprintf "prefix(%s)=%s\n" p (items_str (with_prefix p))))
    probes;
  Buffer.add_string b ("digest=" ^ digest_str digest ^ "\n");
  Buffer.contents b

let observe_store s probes =
  observe ~to_list:(Store.to_list s) ~size:(Store.size s) ~find:(Store.find s)
    ~range:(fun ~lo ~hi -> Store.range s ~lo ~hi)
    ~with_prefix:(Store.with_prefix s) ~digest:(Store.digest s) probes

let observe_model m probes =
  observe ~to_list:(Model.to_list m) ~size:(Model.size m) ~find:(Model.find m)
    ~range:(fun ~lo ~hi -> Model.range m ~lo ~hi)
    ~with_prefix:(Model.with_prefix m) ~digest:(Model.digest m) probes

(* ------------------------------------------------------------------ *)
(* Differential harness                                                *)

let make_backends dir name =
  [
    ("hash", Store.create ());
    ("log", Store.create ~backend:(Store.Log { dir }) ~name ());
    ("packed", Store.create ~backend:Store.Packed ());
  ]

let check_against_model ~ctx backends model probes =
  let want = observe_model model probes in
  List.iter
    (fun (label, s) ->
      check Alcotest.string (Printf.sprintf "%s: %s matches model" ctx label) want
        (observe_store s probes))
    backends

(* Apply one operation everywhere; put results and partition spoils
   must agree backend-by-backend with the model. *)
type op =
  | Put of Store.item
  | Remove of { key : string; item_id : string }
  | Partition of string  (* keep items with key >= boundary (split handover) *)
  | Clear

let apply_op ~ctx backends model op =
  match op with
  | Put it ->
    let want = Model.put model it in
    List.iter
      (fun (label, s) ->
        check Alcotest.bool
          (Printf.sprintf "%s: %s put %s agrees" ctx label (item_str it))
          want (Store.put s it))
      backends
  | Remove { key; item_id } ->
    Model.remove model ~key ~item_id;
    List.iter (fun (_, s) -> Store.remove s ~key ~item_id) backends
  | Partition boundary ->
    let pred (i : Store.item) = String.compare i.Store.key boundary >= 0 in
    (* Spoils are compared sorted: the contract leaves their order
       unspecified (all real consumers are order-insensitive). *)
    let entry_cmp (a : Store.item) b =
      digest_entry_cmp (a.Store.key, a.Store.item_id, a.Store.version)
        (b.Store.key, b.Store.item_id, b.Store.version)
    in
    let want = items_str (List.sort entry_cmp (Model.filter_partition model pred)) in
    List.iter
      (fun (label, s) ->
        check Alcotest.string
          (Printf.sprintf "%s: %s partition spoils agree" ctx label)
          want
          (items_str (List.sort entry_cmp (Store.filter_partition s pred))))
      backends
  | Clear ->
    Model.clear model;
    List.iter (fun (_, s) -> Store.clear s) backends

(* Seeded random op traces over a small key/id pool (collisions are the
   point: duplicate inserts, LWW races, remove-then-reinsert). *)
let gen_ops rng n pool ids =
  List.init n (fun _ ->
      let key = pool.(Rng.int rng (Array.length pool)) in
      let id = ids.(Rng.int rng (Array.length ids)) in
      let r = Rng.int rng 100 in
      if r < 72 then
        Put
          {
            Store.key;
            item_id = id;
            payload = Printf.sprintf "p%d-%s" (Rng.int rng 1000) id;
            version = Rng.int rng 4;
          }
      else if r < 94 then Remove { key; item_id = id }
      else Partition pool.(Rng.int rng (Array.length pool)))

let run_random_trace ~seed ~batches ~batch_len () =
  with_log_dir (Printf.sprintf "trace%d" seed) (fun dir ->
      let rng = Rng.create seed in
      let pool =
        Array.init 10 (fun i -> Printf.sprintf "%c%c#k%d" (Char.chr (97 + (i mod 3))) (Char.chr (97 + i)) i)
      in
      let ids = Array.init 6 (fun i -> Printf.sprintf "id%d" i) in
      let probes = Array.to_list pool in
      let backends = make_backends dir (Printf.sprintf "trace%d" seed) in
      let model = Model.create () in
      for b = 1 to batches do
        let ctx = Printf.sprintf "seed%d batch%d" seed b in
        List.iter (apply_op ~ctx backends model) (gen_ops rng batch_len pool ids);
        check_against_model ~ctx backends model probes
      done)

(* A hot-key trace: hundreds of ids over three keys, so every key
   crosses Id_filter.min_ids and the filter rebuild points (at about
   2x, 4x, 8x ... of the threshold) — the random traces above never
   hold more than six items under a key. Phases: a fill with LWW races,
   stale versions and remove-then-reinsert; a partition handover that
   drops the lowest key (and its filter) followed by a refill; a clear
   and a reuse. Observations after every batch compare all three
   backends against the model. *)
let run_hot_key_trace ~seed () =
  with_log_dir (Printf.sprintf "hot%d" seed) (fun dir ->
      let rng = Rng.create seed in
      let keys = [| "ha#hot"; "hb#hot"; "hc#hot" |] in
      let ids = Array.init 450 (fun i -> Printf.sprintf "oid%03d" i) in
      let probes = Array.to_list keys in
      let backends = make_backends dir (Printf.sprintf "hot%d" seed) in
      let model = Model.create () in
      let gen n =
        List.init n (fun _ ->
            let key = keys.(Rng.int rng 3) and id = ids.(Rng.int rng (Array.length ids)) in
            if Rng.int rng 100 < 88 then
              Put
                {
                  Store.key;
                  item_id = id;
                  payload = Printf.sprintf "p%d" (Rng.int rng 1000);
                  version = Rng.int rng 4;
                }
            else Remove { key; item_id = id })
      in
      let step = ref 0 in
      let run ops =
        incr step;
        let ctx = Printf.sprintf "hot seed%d step%d" seed !step in
        List.iter (apply_op ~ctx backends model) ops;
        check_against_model ~ctx backends model probes
      in
      let hottest () =
        Array.fold_left (fun acc k -> max acc (List.length (Model.find model k))) 0 keys
      in
      for _ = 1 to 8 do
        run (gen 300)
      done;
      check Alcotest.bool
        (Printf.sprintf "fill crosses the rebuild points (hottest key %d items)" (hottest ()))
        true
        (hottest () > 8 * Id_filter.min_ids);
      run [ Partition keys.(1) ];
      for _ = 1 to 3 do
        run (gen 300)
      done;
      run [ Clear ];
      for _ = 1 to 4 do
        run (gen 300)
      done;
      check Alcotest.bool "reuse crosses the threshold again" true (hottest () > 2 * Id_filter.min_ids))

(* The filter's one promise: an id admitted since its key got a filter
   is never reported absent. Ids join one key under the stores' policy
   ([Id_filter.admit]); whenever it asks for a build, the key's ids so
   far are replayed into a fresh filter, as the stores do. *)
let prop_id_filter_no_false_negatives =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"id_filter: no false negatives across adds and rebuilds"
       QCheck2.Gen.(list_size (0 -- 700) (string_size ~gen:printable (0 -- 12)))
       (fun ids ->
         let filter = ref None and added = ref [] and n = ref 0 in
         let all_present f = List.for_all (Id_filter.mem f) !added in
         List.for_all
           (fun id ->
             let built = Id_filter.admit !filter ~walked:!n id in
             added := id :: !added;
             incr n;
             if built then begin
               let f = Id_filter.create !n in
               List.iter (Id_filter.add f) !added;
               filter := Some f
             end;
             match !filter with
             | None -> !n <= Id_filter.min_ids
             | Some f -> Id_filter.mem f id && ((not built) || all_present f))
           ids
         && match !filter with None -> true | Some f -> all_present f))

(* ------------------------------------------------------------------ *)
(* Linearity guard: minor-heap words per put, filling one key          *)

(* Average minor words allocated per put while filling a fresh store's
   single key with [n] new ids. Deterministic (no clock): an insert
   path that walks or rebuilds the key's list allocates in proportion
   to the key's size, so the 16k/1k ratio grows ~16x; a constant-time
   insert keeps it flat. *)
let words_per_put store n =
  let items = Array.init n (fun i -> item "hot#key" (Printf.sprintf "id%06d" i) "payload") in
  let before = Gc.minor_words () in
  Array.iter (fun it -> ignore (Store.put store it)) items;
  (Gc.minor_words () -. before) /. float_of_int n

let test_linearity_guard () =
  with_log_dir "linearity" (fun dir ->
      List.iter
        (fun (label, create) ->
          let small = words_per_put (create "small") 1_000 in
          let large = words_per_put (create "large") 16_000 in
          Printf.printf "%s: %.0f words/put at 1k, %.0f at 16k\n%!" label small large;
          check Alcotest.bool
            (Printf.sprintf "%s: words/put 16k/1k = %.2f <= 1.5" label (large /. small))
            true
            (large /. small <= 1.5))
        [
          ("hash", fun _ -> Store.create ());
          ("log", fun name -> Store.create ~backend:(Store.Log { dir }) ~name ());
          ("packed", fun _ -> Store.create ~backend:Store.Packed ());
        ])

(* ------------------------------------------------------------------ *)
(* Named differential edge cases (each runs on all three backends)     *)

let with_backends name f =
  with_log_dir name (fun dir -> List.iter (fun (label, s) -> f label s) (make_backends dir name))

let test_empty_store () =
  with_backends "empty" (fun label s ->
      check Alcotest.int (label ^ ": size") 0 (Store.size s);
      check Alcotest.string (label ^ ": to_list") "" (items_str (Store.to_list s));
      check Alcotest.string (label ^ ": find") "" (items_str (Store.find s "nope"));
      check Alcotest.string (label ^ ": range") "" (items_str (Store.range s ~lo:"a" ~hi:"z"));
      check Alcotest.string (label ^ ": prefix") "" (items_str (Store.with_prefix s ""));
      check Alcotest.string (label ^ ": digest") "" (digest_str (Store.digest s));
      check Alcotest.int (label ^ ": stats.triples") 0 (Store.stats s).Store.triples)

let test_duplicate_insert () =
  with_backends "dup" (fun label s ->
      check Alcotest.bool (label ^ ": first") true (Store.put s (item "k" "a" "p"));
      (* Same (key, id, version): idempotent retry — accepted, no growth. *)
      check Alcotest.bool (label ^ ": retry accepted") true (Store.put s (item "k" "a" "p"));
      check Alcotest.int (label ^ ": size") 1 (Store.size s);
      check Alcotest.string (label ^ ": state") {|"k"/a/"p"/0|} (items_str (Store.to_list s)))

let test_stale_version_rejected () =
  with_backends "stale" (fun label s ->
      ignore (Store.put s (item ~version:3 "k" "a" "new"));
      check Alcotest.bool (label ^ ": stale rejected") false (Store.put s (item ~version:2 "k" "a" "old"));
      check Alcotest.string (label ^ ": payload kept") {|"k"/a/"new"/3|} (items_str (Store.find s "k")))

let test_lww_update_keeps_position () =
  with_backends "lww" (fun label s ->
      ignore (Store.put s (item "k" "a" "pa"));
      ignore (Store.put s (item "k" "b" "pb"));
      ignore (Store.put s (item "k" "c" "pc"));
      (* Update the middle item; newest-first-by-first-insertion order
         must be preserved: c, b, a. *)
      check Alcotest.bool (label ^ ": update ok") true (Store.put s (item ~version:5 "k" "b" "pb2"));
      check Alcotest.string (label ^ ": order kept")
        {|"k"/c/"pc"/0;"k"/b/"pb2"/5;"k"/a/"pa"/0|}
        (items_str (Store.find s "k")))

let test_newest_first_across_scans () =
  with_backends "order" (fun label s ->
      ignore (Store.put s (item "b#k" "1" "x"));
      ignore (Store.put s (item "a#k" "2" "y"));
      ignore (Store.put s (item "b#k" "3" "z"));
      let want = {|"a#k"/2/"y"/0;"b#k"/3/"z"/0;"b#k"/1/"x"/0|} in
      check Alcotest.string (label ^ ": to_list") want (items_str (Store.to_list s));
      check Alcotest.string (label ^ ": range") want (items_str (Store.range s ~lo:"a" ~hi:"c"));
      let via_iter = ref [] in
      Store.iter s (fun i -> via_iter := i :: !via_iter);
      check Alcotest.string (label ^ ": iter") want (items_str (List.rev !via_iter)))

let test_delete_then_prefix_scan () =
  with_backends "delprefix" (fun label s ->
      ignore (Store.put s (item "aa#1" "x" "p1"));
      ignore (Store.put s (item "aa#2" "y" "p2"));
      ignore (Store.put s (item "aa#2" "z" "p3"));
      ignore (Store.put s (item "ab#1" "w" "p4"));
      (* Delete one of two items under a key, then the whole aa#1 key. *)
      Store.remove s ~key:"aa#2" ~item_id:"y";
      Store.remove s ~key:"aa#1" ~item_id:"x";
      check Alcotest.string (label ^ ": prefix aa") {|"aa#2"/z/"p3"/0|}
        (items_str (Store.with_prefix s "aa"));
      check Alcotest.string (label ^ ": prefix a") {|"aa#2"/z/"p3"/0;"ab#1"/w/"p4"/0|}
        (items_str (Store.with_prefix s "a"));
      check Alcotest.string (label ^ ": emptied key gone") "" (items_str (Store.find s "aa#1")))

let test_remove_nonexistent () =
  with_backends "rmnone" (fun label s ->
      ignore (Store.put s (item "k" "a" "p"));
      Store.remove s ~key:"k" ~item_id:"other";
      Store.remove s ~key:"unknown" ~item_id:"a";
      check Alcotest.int (label ^ ": size intact") 1 (Store.size s);
      check Alcotest.string (label ^ ": state intact") {|"k"/a/"p"/0|} (items_str (Store.to_list s)))

let test_range_edges () =
  with_backends "range" (fun label s ->
      ignore (Store.put s (item "b" "1" "x"));
      ignore (Store.put s (item "d" "2" "y"));
      ignore (Store.put s (item "f" "3" "z"));
      check Alcotest.string (label ^ ": inverted empty") "" (items_str (Store.range s ~lo:"f" ~hi:"b"));
      check Alcotest.string (label ^ ": point") {|"d"/2/"y"/0|} (items_str (Store.range s ~lo:"d" ~hi:"d"));
      check Alcotest.string (label ^ ": inclusive both ends")
        {|"b"/1/"x"/0;"d"/2/"y"/0;"f"/3/"z"/0|}
        (items_str (Store.range s ~lo:"b" ~hi:"f"));
      check Alcotest.string (label ^ ": between keys") {|"d"/2/"y"/0|}
        (items_str (Store.range s ~lo:"c" ~hi:"e")))

let test_prefix_contiguity () =
  with_backends "prefix" (fun label s ->
      ignore (Store.put s (item "ab#1" "1" "x"));
      ignore (Store.put s (item "ac#1" "2" "y"));
      ignore (Store.put s (item "ab#2" "3" "z"));
      ignore (Store.put s (item "b#1" "4" "w"));
      check Alcotest.string (label ^ ": ab block")
        {|"ab#1"/1/"x"/0;"ab#2"/3/"z"/0|}
        (items_str (Store.with_prefix s "ab"));
      check Alcotest.string (label ^ ": empty prefix = all")
        {|"ab#1"/1/"x"/0;"ab#2"/3/"z"/0;"ac#1"/2/"y"/0;"b#1"/4/"w"/0|}
        (items_str (Store.with_prefix s "")))

let test_filter_partition_handover () =
  with_backends "partition" (fun label s ->
      for i = 0 to 9 do
        ignore (Store.put s (item (Printf.sprintf "k%d" i) (Printf.sprintf "id%d" i) "p"))
      done;
      let removed = Store.filter_partition s (fun i -> String.compare i.Store.key "k5" < 0) in
      check Alcotest.int (label ^ ": removed count") 5 (List.length removed);
      check Alcotest.int (label ^ ": kept count") 5 (Store.size s);
      List.iter
        (fun (i : Store.item) ->
          check Alcotest.bool (label ^ ": spoils >= k5") false (String.compare i.Store.key "k5" < 0))
        removed;
      List.iter
        (fun (i : Store.item) ->
          check Alcotest.bool (label ^ ": kept < k5") true (String.compare i.Store.key "k5" < 0))
        (Store.to_list s))

let test_clear_then_reuse () =
  with_backends "clear" (fun label s ->
      ignore (Store.put s (item "k1" "a" "p1"));
      ignore (Store.put s (item "k2" "b" "p2"));
      Store.clear s;
      check Alcotest.int (label ^ ": empty") 0 (Store.size s);
      ignore (Store.put s (item "k1" "a" "p3"));
      check Alcotest.string (label ^ ": reusable") {|"k1"/a/"p3"/0|} (items_str (Store.to_list s));
      (* A cleared-then-reused log must also replay to just the new state. *)
      check Alcotest.int (label ^ ": crash-restart sees only new state")
        (match Store.kind s with Store.Log _ -> 1 | _ -> 0)
        (Store.crash_restart s))

(* ------------------------------------------------------------------ *)
(* Log backend: crash/restart and torn tails                           *)

let test_log_clean_restart () =
  with_log_dir "clean-restart" (fun dir ->
      let s = Store.create ~backend:(Store.Log { dir }) ~name:"peer" () in
      let rng = Rng.create 11 in
      for i = 0 to 199 do
        ignore (Store.put s (item ~version:(Rng.int rng 3) (Printf.sprintf "k%d" (Rng.int rng 40)) (Printf.sprintf "id%d" i) "payload"))
      done;
      Store.remove s ~key:"k1" ~item_id:"id7";
      let before = observe_store s [ "k1"; "k2"; "k3" ] in
      let n = Store.size s in
      check Alcotest.int "all items recovered" n (Store.crash_restart s);
      check Alcotest.string "state identical after replay" before (observe_store s [ "k1"; "k2"; "k3" ]);
      (* The reopened store keeps accepting writes. *)
      check Alcotest.bool "writable after restart" true (Store.put s (item "fresh" "id" "p")))

let test_log_torn_tail () =
  with_log_dir "torn" (fun dir ->
      (* Drive a log store and a parallel in-memory reference; remember
         the log length after every op. A torn tail cut at op k must
         replay to exactly the reference state after ops 0..k. *)
      let ops =
        let rng = Rng.create 23 in
        List.init 120 (fun i ->
            item ~version:(Rng.int rng 3)
              (Printf.sprintf "k%d" (Rng.int rng 12))
              (Printf.sprintf "id%d" (Rng.int rng 30))
              (Printf.sprintf "pay-%d" i))
      in
      let s = Store.create ~backend:(Store.Log { dir }) ~name:"torn" () in
      let marks = ref [] in
      List.iter
        (fun it ->
          ignore (Store.put s it);
          marks := Store.log_bytes s :: !marks)
        ops;
      let marks = Array.of_list (List.rev !marks) in
      let total = marks.(Array.length marks - 1) in
      let reference upto =
        let r = Store.create () in
        List.iteri (fun i it -> if i <= upto then ignore (Store.put r it)) ops;
        observe_store r [ "k0"; "k5"; "k11" ]
      in
      (* keep_frac resolving to an exact record boundary: ops 0..79
         survive, the rest are the torn tail. *)
      let cut = 79 in
      let frac = (float_of_int marks.(cut) +. 0.5) /. float_of_int total in
      let recovered = Store.crash_restart ~keep_frac:frac s in
      check Alcotest.string "boundary cut replays the surviving prefix" (reference cut)
        (observe_store s [ "k0"; "k5"; "k11" ]);
      check Alcotest.bool "recovered <= written" true (recovered <= List.length ops);
      (* Now cut mid-record: a few bytes into op 41's record. The half
         record must be discarded, leaving exactly ops 0..40. *)
      let s2 = Store.create ~backend:(Store.Log { dir }) ~name:"torn2" () in
      List.iter (fun it -> ignore (Store.put s2 it)) ops;
      let total2 = Store.log_bytes s2 in
      let frac2 = (float_of_int marks.(40) +. 3.5) /. float_of_int total2 in
      ignore (Store.crash_restart ~keep_frac:frac2 s2);
      check Alcotest.string "mid-record cut discards the half record" (reference 40)
        (observe_store s2 [ "k0"; "k5"; "k11" ]);
      (* After the truncating replay the log is rewritten to its valid
         prefix: a second, clean restart recovers the same state. *)
      let after = observe_store s2 [ "k0"; "k5"; "k11" ] in
      ignore (Store.crash_restart s2);
      check Alcotest.string "replay is idempotent" after (observe_store s2 [ "k0"; "k5"; "k11" ]))

let test_log_total_loss () =
  with_log_dir "total-loss" (fun dir ->
      let s = Store.create ~backend:(Store.Log { dir }) ~name:"gone" () in
      for i = 0 to 20 do
        ignore (Store.put s (item (Printf.sprintf "k%d" i) "id" "p"))
      done;
      check Alcotest.int "whole log torn -> empty store" 0 (Store.crash_restart ~keep_frac:0.0 s);
      check Alcotest.int "size 0" 0 (Store.size s);
      check Alcotest.bool "still writable" true (Store.put s (item "k" "id" "p")))

(* ------------------------------------------------------------------ *)
(* Packed backend: compression accounting                              *)

(* 100k triples with Zipf-repeated index keys (duplicate (attr,value)
   pairs), unique ids and payloads — the shape the packed layout is
   built for. Same items into hash and packed; packed must account
   strictly fewer bytes. *)
let test_packed_compression_100k () =
  let n = 100_000 in
  let rng = Rng.create 7 in
  let z = Zipf.create ~n:5_000 ~s:1.1 in
  let hash = Store.create () in
  let packed = Store.create ~backend:Store.Packed () in
  for i = 0 to n - 1 do
    let rank = Zipf.sample z rng in
    let it =
      item
        (Printf.sprintf "pubs#value#%05d" rank)
        (Printf.sprintf "oid%06d" i)
        (Printf.sprintf "{\"oid\":%d,\"attr\":\"value\",\"rank\":%d}" i rank)
    in
    ignore (Store.put hash it);
    ignore (Store.put packed it)
  done;
  let sh = Store.stats hash and sp = Store.stats packed in
  check Alcotest.int "hash holds all triples" n sh.Store.triples;
  check Alcotest.int "packed holds all triples" n sp.Store.triples;
  Printf.printf "bytes/triple: hash=%.1f packed=%.1f\n%!"
    (float_of_int sh.Store.bytes /. float_of_int n)
    (float_of_int sp.Store.bytes /. float_of_int n);
  check Alcotest.bool
    (Printf.sprintf "packed (%d) strictly below hash (%d)" sp.Store.bytes sh.Store.bytes)
    true
    (sp.Store.bytes < sh.Store.bytes);
  (* And the stores still agree observably at this scale. *)
  check Alcotest.int "same size" (Store.size hash) (Store.size packed);
  let probe = "pubs#value#00001" in
  check Alcotest.string "hot key agrees" (items_str (Store.find hash probe))
    (items_str (Store.find packed probe))

(* The store.bytes gauge must be the same number Store.stats reports —
   the compression tests and BENCH_store.json then share one counter. *)
let test_store_bytes_gauge () =
  let sim = Sim.create () in
  let rng = Rng.create 5 in
  let n = 8 in
  let latency = Latency.create (Latency.Constant 1.0) ~n ~rng in
  let config = { Config.default with Config.store_backend = Unistore_pgrid.Store_intf.Packed } in
  let ov = Build.oracle sim ~latency ~rng ~config ~n ~sample_keys:[] ~balanced:false () in
  let m = Metrics.create () in
  Overlay.set_metrics ov (Some m);
  for i = 0 to 49 do
    let r =
      Overlay.insert_sync ov ~origin:(i mod n) ~key:(Printf.sprintf "g#%02d" (i mod 13))
        ~item_id:(Printf.sprintf "id%d" i) ~payload:"payload" ()
    in
    check Alcotest.bool "insert ok" true r.Overlay.complete
  done;
  Overlay.refresh_store_gauges ov;
  let expected_bytes = ref 0 and expected_items = ref 0 in
  for id = 0 to n - 1 do
    let node = Overlay.node ov id in
    check Alcotest.string "node runs the packed backend" "packed"
      (Store.backend_label (Store.kind node.Node.store));
    let s = Store.stats node.Node.store in
    expected_bytes := !expected_bytes + s.Store.bytes;
    expected_items := !expected_items + s.Store.triples
  done;
  check Alcotest.bool "items were stored" true (!expected_items > 0);
  check (Alcotest.option (Alcotest.float 0.5)) "store.bytes = sum of Store.stats"
    (Some (float_of_int !expected_bytes))
    (Metrics.gauge m "store.bytes");
  check (Alcotest.option (Alcotest.float 0.5)) "store.items = sum of Store.stats"
    (Some (float_of_int !expected_items))
    (Metrics.gauge m "store.items")

(* ------------------------------------------------------------------ *)
(* Overlay crash-restart: torn log tail, then repair + anti-entropy    *)

let test_overlay_crash_restart_recall () =
  with_log_dir "overlay-crash" (fun dir ->
      let sim = Sim.create () in
      let rng = Rng.create 42 in
      let n = 16 in
      let latency = Latency.create (Latency.Constant 1.0) ~n ~rng in
      let config =
        {
          Config.default with
          Config.replication = 3;
          store_backend = Unistore_pgrid.Store_intf.Log { dir };
        }
      in
      let keys = List.init 40 (fun i -> Printf.sprintf "key#%02d" i) in
      let ov = Build.oracle sim ~latency ~rng ~config ~n ~sample_keys:keys ~balanced:false () in
      let m = Metrics.create () in
      Overlay.set_metrics ov (Some m);
      let insert i k =
        let r =
          Overlay.insert_sync ov ~origin:0 ~key:k ~item_id:(Printf.sprintf "id%d" i) ~payload:k ()
        in
        check Alcotest.bool (Printf.sprintf "insert %s ok" k) true r.Overlay.complete
      in
      let phase1, phase2 =
        let rec split i = function
          | [] -> ([], [])
          | k :: rest ->
            let a, b = split (i + 1) rest in
            if i < 30 then (k :: a, b) else (a, k :: b)
        in
        split 0 keys
      in
      List.iteri insert phase1;
      (* Victim: a peer (not the origin) responsible for the first key,
         so its log is non-empty and its loss matters. *)
      let victim =
        match List.filter (fun (nd : Node.t) -> nd.Node.id <> 0) (Overlay.responsible ov (List.hd keys)) with
        | nd :: _ -> nd
        | [] -> Alcotest.fail "no responsible peer other than the origin"
      in
      let held_before = Store.size victim.Node.store in
      check Alcotest.bool "victim held items" true (held_before > 0);
      (* Crash mid-bulk-insert with a torn tail: half the log survives. *)
      let recovered = Overlay.crash ov ~keep_frac:0.5 victim.Node.id in
      check Alcotest.bool "torn tail lost items" true (recovered < held_before);
      check Alcotest.int "fault.crash counted" 1 (Metrics.counter m "fault.crash");
      (* The bulk insert continues while the victim is down. *)
      List.iteri (fun i k -> insert (1000 + i) k) phase2;
      (* Revive; repair re-adopts the peer, anti-entropy refills it. *)
      Overlay.revive ov victim.Node.id;
      ignore (Repair.round ov);
      Sim.run_all sim;
      for _ = 1 to 8 do
        Gossip.anti_entropy_round ov;
        Sim.run_all sim
      done;
      check Alcotest.bool "fault.repair.rounds visible" true
        (Metrics.counter m "fault.repair.rounds" >= 1);
      (* Recall over every key must be back to 1.0. *)
      let hits =
        List.fold_left
          (fun acc k ->
            let r = Overlay.lookup_sync ov ~origin:0 ~key:k in
            if r.Overlay.complete && r.Overlay.items <> [] then acc + 1 else acc)
          0 keys
      in
      check Alcotest.int "recall 1.0 after repair + anti-entropy" (List.length keys) hits;
      (* The revived store itself converged back past its torn state. *)
      check Alcotest.bool "victim refilled" true (Store.size victim.Node.store > recovered))

(* ------------------------------------------------------------------ *)
(* Determinism: same seed, log backend enabled, byte-identical trace   *)

let render_trace tr =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%.6f %d>%d %s %dB c%d %s\n" e.Trace.time e.Trace.src e.Trace.dst
           e.Trace.kind e.Trace.bytes e.Trace.corr
           (Format.asprintf "%a" Trace.pp_outcome e.Trace.outcome)))
    (Trace.events tr);
  Buffer.contents buf

let run_log_scenario dir =
  let n = 300 in
  let sim = Sim.create () in
  let rng = Rng.create 4242 in
  let latency = Latency.create Latency.Lan ~n ~rng in
  let config = { Config.default with Config.store_backend = Unistore_pgrid.Store_intf.Log { dir } } in
  let ov = Build.oracle sim ~latency ~rng ~config ~n ~sample_keys:[] ~balanced:true () in
  let tr = Trace.create () in
  Net.set_trace (Overlay.net ov) (Some tr);
  let spec =
    Faults.spec ~seed:99 ~duration_ms:3_000.0
      ~churn:(Faults.churn_spec ~interval_ms:500.0 ~down_ms:1_000.0 ~rate:0.02 ())
      ()
  in
  let h = Faults.inject (Overlay.net ov) spec in
  let wrng = Rng.create 777 in
  for i = 0 to 79 do
    let key = Printf.sprintf "det#%03d" (Rng.int wrng 64) in
    Overlay.insert ov ~origin:(Rng.int wrng n) ~key ~item_id:(string_of_int i) ~payload:"p"
      ~k:(fun _ -> ())
      ();
    Overlay.lookup ov ~origin:(Rng.int wrng n) ~key ~k:(fun _ -> ())
  done;
  Sim.run_all sim;
  (render_trace tr, Faults.render_log h)

let test_log_backend_determinism () =
  with_log_dir "replay-a" (fun dir_a ->
      with_log_dir "replay-b" (fun dir_b ->
          let trace1, faults1 = run_log_scenario dir_a in
          let trace2, faults2 = run_log_scenario dir_b in
          check Alcotest.bool "trace non-trivial" true (String.length trace1 > 500);
          check Alcotest.string "byte-identical fault log" faults1 faults2;
          check Alcotest.int "same trace length" (String.length trace1) (String.length trace2);
          check Alcotest.bool "byte-identical trace" true (String.equal trace1 trace2)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "unistore_store"
    [
      ( "differential",
        [
          Alcotest.test_case "empty store" `Quick test_empty_store;
          Alcotest.test_case "duplicate insert is an idempotent retry" `Quick test_duplicate_insert;
          Alcotest.test_case "stale version rejected" `Quick test_stale_version_rejected;
          Alcotest.test_case "LWW update keeps scan position" `Quick test_lww_update_keeps_position;
          Alcotest.test_case "ordering contract across scans" `Quick test_newest_first_across_scans;
          Alcotest.test_case "delete then prefix scan" `Quick test_delete_then_prefix_scan;
          Alcotest.test_case "remove nonexistent is a no-op" `Quick test_remove_nonexistent;
          Alcotest.test_case "range edges" `Quick test_range_edges;
          Alcotest.test_case "prefix contiguity" `Quick test_prefix_contiguity;
          Alcotest.test_case "filter_partition handover" `Quick test_filter_partition_handover;
          Alcotest.test_case "clear then reuse" `Quick test_clear_then_reuse;
          Alcotest.test_case "random trace seed 1" `Quick (fun () ->
              run_random_trace ~seed:1 ~batches:12 ~batch_len:40 ());
          Alcotest.test_case "random trace seed 2" `Quick (fun () ->
              run_random_trace ~seed:2 ~batches:12 ~batch_len:40 ());
          Alcotest.test_case "random trace seed 3" `Quick (fun () ->
              run_random_trace ~seed:3 ~batches:8 ~batch_len:120 ());
          Alcotest.test_case "hot-key trace past the filter threshold" `Quick (fun () ->
              run_hot_key_trace ~seed:4 ());
          prop_id_filter_no_false_negatives;
        ] );
      ( "linearity",
        [
          Alcotest.test_case "words/put flat from 1k to 16k items per key" `Quick
            test_linearity_guard;
        ] );
      ( "log",
        [
          Alcotest.test_case "clean crash-restart replays everything" `Quick test_log_clean_restart;
          Alcotest.test_case "torn tail at and inside record boundaries" `Quick test_log_torn_tail;
          Alcotest.test_case "total log loss" `Quick test_log_total_loss;
        ] );
      ( "packed",
        [
          Alcotest.test_case "100k-triple Zipf compression" `Slow test_packed_compression_100k;
          Alcotest.test_case "store.bytes gauge wiring" `Quick test_store_bytes_gauge;
        ] );
      ( "crash-restart",
        [
          Alcotest.test_case "torn log + repair + anti-entropy recall 1.0" `Quick
            test_overlay_crash_restart_recall;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, log backend, identical trace" `Quick
            test_log_backend_determinism;
        ] );
    ]
