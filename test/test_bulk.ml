(* Tests for the bulk-operation pipeline: batched shower inserts,
   range showers with path compression and multi-key bind-join probes.

   The pipeline is a pure transport optimization that both substrates
   run (P-Grid splits batches down its trie, Chord+trie groups them by
   trie bucket), so the tests are mostly differential: a P-Grid
   deployment and a Chord+trie deployment of the same dataset must
   answer every query identically — P-Grid also under message loss —
   while P-Grid's metrics show its pipeline actually engaged. *)

module Rng = Unistore_util.Rng
module Metrics = Unistore_obs.Metrics
module Overlay = Unistore_pgrid.Overlay
module Chord = Unistore_chord.Chord
module Latency = Unistore_sim.Latency
module Store = Unistore_pgrid.Store
module Dht = Unistore_triple.Dht
module Keys = Unistore_triple.Keys
module Tstore = Unistore_triple.Tstore
module Cost = Unistore_qproc.Cost
module Binding = Unistore_qproc.Binding
module Publications = Unistore_workload.Publications
module Trace = Unistore_sim.Trace

open Test_support

let check = Alcotest.check

let dataset ?(authors = 12) () =
  Publications.generate (Rng.create 5) { Publications.default_params with n_authors = authors }

(* Small deployments with caching off (batching must stand on its own)
   and the q-gram index off (so attribute regions are not dwarfed by
   q-gram keys and range showers span several peers). *)
let deploy ?(peers = 48) ?(drop = 0.0) ?(overlay = Unistore.Pgrid) ds =
  let sample_keys =
    List.concat_map
      (fun (tr : Unistore.Triple.t) ->
        [
          Keys.oid_key tr.Unistore.Triple.oid;
          Keys.attr_value_key tr.Unistore.Triple.attr tr.Unistore.Triple.value;
          Keys.value_key tr.Unistore.Triple.value;
        ])
      ds.Publications.triples
  in
  Unistore.create ~sample_keys
    {
      Unistore.default_config with
      peers;
      seed = 11;
      drop;
      overlay;
      qgram_index = false;
      cache = false;
    }

let loaded ?peers ?drop ?overlay ds =
  let t = deploy ?peers ?drop ?overlay ds in
  let stored = Unistore.load t ds.Publications.tuples in
  Unistore.settle t;
  Unistore.set_stats_of_triples t ds.Publications.triples;
  (t, stored)

let row_set (r : Unistore.Report.report) =
  List.sort compare (List.map Binding.fingerprint r.Unistore.Report.rows)

(* Re-issue until the substrate reports a complete answer — under
   message loss individual attempts may time out incomplete. *)
let query_complete ?(attempts = 120) t vql =
  let rec go n =
    if n = 0 then Alcotest.failf "query never completed under loss: %s" vql
    else
      match Unistore.query t ~origin:3 vql with
      | Error e -> Alcotest.failf "query failed: %s" e
      | Ok r -> if r.Unistore.Report.complete then r else go (n - 1)
  in
  go attempts

let queries =
  [
    (* narrow range window *)
    "SELECT ?a,?g WHERE { (?a,'age',?g) FILTER ?g >= 30 FILTER ?g <= 36 }";
    (* whole-attribute window (forked shower) *)
    "SELECT ?p,?y WHERE { (?p,'year',?y) FILTER ?y >= 1998 FILTER ?y <= 2007 }";
    (* bind-join whose probe round batches into multi-lookups *)
    "SELECT ?a,?att,?v WHERE { (?a,'num_of_pubs',2) (?a,?att,?v) }";
    (* exact lookups *)
    "SELECT ?n WHERE { (?a,'name',?n) }";
  ]

(* ------------------------------------------------------------------ *)
(* Overlay-level operations *)

let overlay_exn t = match Unistore.pgrid t with Some ov -> ov | None -> assert false

(* The batch paths of {!Dht.t}, on both substrates. *)
let substrates = [ Unistore.Pgrid; Unistore.Chord_trie ]

let bulk_items =
  List.mapi
    (fun i k -> { Store.key = k; item_id = Printf.sprintf "bi%d" i; payload = k; version = 0 })
    [ "bulk#a"; "bulk#b"; "bulk#c"; "bulk#d"; "bulk#e"; "bulk#f"; "bulk#g"; "alpha#1"; "zulu#2" ]

let test_bulk_insert () =
  let ds = dataset () in
  List.iter
    (fun overlay ->
      let t = deploy ~overlay ds in
      let dht = Unistore.dht t in
      let r = await dht.Dht.sim (fun k -> dht.Dht.bulk_insert ~origin:2 ~items:bulk_items ~k) in
      Alcotest.(check bool) (dht.Dht.name ^ ": complete") true r.Dht.complete;
      List.iter
        (fun (it : Store.item) ->
          let found = await dht.Dht.sim (fun k -> dht.Dht.lookup ~origin:7 ~key:it.Store.key ~k) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: key %s stored" dht.Dht.name it.Store.key)
            true
            (found.Dht.complete
            && List.exists
                 (fun (i : Store.item) -> String.equal i.Store.item_id it.Store.item_id)
                 found.Dht.items))
        bulk_items;
      if overlay = Unistore.Pgrid then
        Alcotest.(check bool) "batches sent" true
          (Metrics.counter (Unistore.metrics t) "batch.bulk.batches" > 0))
    substrates

(* On Chord a batch stores exactly what one insert per item stores, on
   every peer. *)
let test_chord_bulk_insert_stores () =
  let ring () =
    let n = 24 in
    let rng = Rng.create 42 in
    let latency = Latency.create (Latency.Constant 1.0) ~n ~rng in
    let sim = Unistore_sim.Sim.create () in
    let chord = Chord.create sim ~latency ~rng ~config:Chord.default_config ~n () in
    (chord, Dht.of_chord_trie chord)
  in
  let batched, bdht = ring () and single, sdht = ring () in
  ignore (await bdht.Dht.sim (fun k -> bdht.Dht.bulk_insert ~origin:2 ~items:bulk_items ~k));
  List.iter
    (fun (it : Store.item) ->
      Alcotest.(check bool) "single insert" true
        (await sdht.Dht.sim (fun k ->
             sdht.Dht.insert ~origin:2 ~key:it.Store.key ~item_id:it.Store.item_id
               ~payload:it.Store.payload ~k)))
    bulk_items;
  let show (i : Store.item) =
    Printf.sprintf "%S %S %S %d" i.Store.key i.Store.item_id i.Store.payload i.Store.version
  in
  List.iter
    (fun peer ->
      check Alcotest.(list string) (Printf.sprintf "peer %d" peer)
        (List.map show (Chord.stored_items single peer))
        (List.map show (Chord.stored_items batched peer)))
    (Chord.peers single)

let test_bulk_insert_empty () =
  let ds = dataset () in
  List.iter
    (fun overlay ->
      let dht = Unistore.dht (deploy ~overlay ds) in
      let r = await dht.Dht.sim (fun k -> dht.Dht.bulk_insert ~origin:0 ~items:[] ~k) in
      Alcotest.(check bool) (dht.Dht.name ^ ": empty batch trivially complete") true r.Dht.complete)
    substrates

let test_multi_lookup () =
  let ds = dataset () in
  let attr_values =
    List.filteri (fun i _ -> i < 6) ds.Publications.triples
    |> List.map (fun (tr : Unistore.Triple.t) ->
           Keys.attr_value_key tr.Unistore.Triple.attr tr.Unistore.Triple.value)
  in
  (* Unsorted, with a repeat and a key nothing is stored under. *)
  let keys = List.rev attr_values @ [ "missing#key"; List.hd attr_values ] in
  List.iter
    (fun overlay ->
      let t, _ = loaded ~overlay ds in
      let dht = Unistore.dht t in
      let sent0 = dht.Dht.total_sent () in
      let found, r = await dht.Dht.sim (fun k -> dht.Dht.multi_lookup ~origin:4 ~keys ~k) in
      let batch_msgs = dht.Dht.total_sent () - sent0 in
      let name = dht.Dht.name in
      Alcotest.(check bool) (name ^ ": complete") true r.Dht.complete;
      check Alcotest.(list string) (name ^ ": sorted, distinct keys")
        (List.sort_uniq String.compare keys) (List.map fst found);
      (* Each key's answer must equal a routed singleton lookup's. *)
      let single_msgs = ref 0 in
      List.iter
        (fun (key, items) ->
          let sent0 = dht.Dht.total_sent () in
          let single = await dht.Dht.sim (fun k -> dht.Dht.lookup ~origin:9 ~key ~k) in
          single_msgs := !single_msgs + dht.Dht.total_sent () - sent0;
          let ids l = List.sort compare (List.map (fun (i : Store.item) -> i.Store.item_id) l) in
          check Alcotest.(list string) (name ^ ": key " ^ key) (ids single.Dht.items) (ids items))
        found;
      Alcotest.(check bool) (name ^ ": missing key present but empty") true
        (match List.assoc_opt "missing#key" found with Some [] -> true | _ -> false);
      match overlay with
      | Unistore.Pgrid ->
        Alcotest.(check bool) "probe batches sent" true
          (Metrics.counter (Unistore.metrics t) "batch.probe.batches" > 0)
      | Unistore.Chord_trie ->
        if batch_msgs >= !single_msgs then
          Alcotest.failf "chord: the batch sent %d messages, singleton lookups %d" batch_msgs
            !single_msgs)
    substrates

(* ------------------------------------------------------------------ *)
(* Differential: P-Grid vs Chord+trie *)

let test_batched_load_and_queries_agree () =
  (* Enough authors that the num_of_pubs bind-join probes at least two
     deduplicated keys per round, so multi-key probing engages. *)
  let ds = dataset ~authors:24 () in
  (* Enough peers that attribute regions span several leaves, so range
     showers fork and pass through peers with nothing local. *)
  let batched, stored_b = loaded ~peers:96 ds in
  let chord, stored_c = loaded ~peers:96 ~overlay:Unistore.Chord_trie ds in
  check Alcotest.int "same triples stored" stored_c stored_b;
  check Alcotest.int "everything stored" (List.length ds.Publications.triples) stored_b;
  let mb = Unistore.metrics batched in
  Alcotest.(check bool) "bulk pipeline engaged on load" true
    (Metrics.counter mb "batch.bulk.batches" > 0);
  Metrics.clear mb;
  List.iter
    (fun vql ->
      let rb = query_complete batched vql in
      let rc = query_complete chord vql in
      check Alcotest.(list string) ("rows agree: " ^ vql) (row_set rc) (row_set rb))
    queries;
  (* The query phase exercised path compression and multi-key probes. *)
  Alcotest.(check bool) "empty pass-through hits elided" true
    (Metrics.counter mb "batch.agg.elided" > 0);
  Alcotest.(check bool) "probe batches happened" true
    (Metrics.counter mb "batch.probe.batches" > 0)

(* Insert each triple with bounded retries until the substrate
   acknowledges it: under loss a single attempt may time out, but a
   retried insert is idempotent (same key and item id), so this yields
   a deployment that provably holds the full dataset. *)
let lossy_loaded ?peers ds =
  let t = deploy ?peers ~drop:0.2 ds in
  List.iter
    (fun tr ->
      let rec go n =
        if n = 0 then Alcotest.fail "triple never inserted under loss"
        else if not (Unistore.insert_triple t ~origin:1 tr) then go (n - 1)
      in
      go 50)
    ds.Publications.triples;
  Unistore.settle t;
  (* Inserts ack on the region's primary; under loss the asynchronous
     replication pushes may have dropped, and a later shower can serve a
     region from a stale replica. Converge replicas first — that is what
     anti-entropy is for — so the answers come from the full data. *)
  for _ = 1 to 6 do
    Unistore.anti_entropy_round t;
    Unistore.settle t
  done;
  Unistore.set_stats_of_triples t ds.Publications.triples;
  t

let test_arms_agree_under_loss () =
  (* 20% iid message loss on P-Grid; every query retried until it
     reports complete must still match the no-loss truth, which must in
     turn match a Chord+trie deployment of the same dataset. Seeds are
     fixed, so the loss pattern (and this test) is deterministic. *)
  let ds = dataset ~authors:8 () in
  let truth, stored_t = loaded ~peers:32 ds in
  check Alcotest.int "truth stored everything" (List.length ds.Publications.triples) stored_t;
  let chord, stored_c = loaded ~peers:32 ~overlay:Unistore.Chord_trie ds in
  check Alcotest.int "chord stored everything" (List.length ds.Publications.triples) stored_c;
  let lossy = lossy_loaded ~peers:32 ds in
  List.iter
    (fun vql ->
      let rt = row_set (query_complete truth vql) in
      let rc = row_set (query_complete chord vql) in
      let rl = row_set (query_complete lossy vql) in
      check Alcotest.(list string) ("chord matches truth: " ^ vql) rt rc;
      check Alcotest.(list string) ("lossy arm matches truth: " ^ vql) rt rl)
    queries

let test_retransmit_recovers_bulk_insert () =
  (* Under loss the per-key ack protocol retransmits exactly the
     unacked remainder until the whole batch is stored. *)
  let ds = dataset ~authors:8 () in
  let t = deploy ~peers:32 ~drop:0.2 ds in
  let ov = overlay_exn t in
  let items =
    List.mapi
      (fun i (tr : Unistore.Triple.t) ->
        {
          Store.key = Keys.attr_value_key tr.Unistore.Triple.attr tr.Unistore.Triple.value;
          item_id = Printf.sprintf "rt%d" i;
          payload = tr.Unistore.Triple.oid;
          version = 0;
        })
      ds.Publications.triples
  in
  let r = await (Overlay.sim ov) (fun k -> Overlay.bulk_insert ov ~origin:2 ~items ~k) in
  Alcotest.(check bool) "batch completes despite loss" true r.Overlay.complete;
  let m = Unistore.metrics t in
  Alcotest.(check bool) "selective retransmits happened" true
    (Metrics.counter m "batch.retransmit" > 0);
  (* Acks come from region primaries; sync replica state before reading. *)
  for _ = 1 to 6 do
    Unistore.anti_entropy_round t;
    Unistore.settle t
  done;
  (* Spot-check that retransmitted keys really landed. *)
  List.iteri
    (fun i (it : Store.item) ->
      if i mod 7 = 0 then begin
        let rec go n =
          if n = 0 then Alcotest.failf "lookup for %s never completed" it.Store.key
          else
            let found = await (Overlay.sim ov) (fun k ->
                Overlay.lookup ov ~origin:5 ~key:it.Store.key ~k) in
            if not found.Overlay.complete then go (n - 1)
            else
              Alcotest.(check bool)
                (Printf.sprintf "item %s retrievable" it.Store.item_id)
                true
                (List.exists
                   (fun (f : Store.item) -> String.equal f.Store.item_id it.Store.item_id)
                   found.Overlay.items)
        in
        go 50
      end)
    items

(* ------------------------------------------------------------------ *)
(* Cost model *)

let test_cost_env_reflects_batching () =
  let ds = dataset () in
  let env = Cost.env_of_dht (Unistore.dht (deploy ds)) ~replication:2 in
  (* A probe round is one multi-lookup: its messages are bounded by the
     region count, not the left side's key count. *)
  let c = Cost.probe_round_cost env ~keys:500.0 ~cardinality:10.0 in
  let c2 = Cost.probe_round_cost env ~keys:1000.0 ~cardinality:10.0 in
  check (Alcotest.float 1e-6) "batched saturates at the region count" c.Cost.messages
    c2.Cost.messages

(* ------------------------------------------------------------------ *)
(* Tstore bulk path *)

let test_tstore_insert_bulk () =
  let ds = dataset () in
  let t = deploy ds in
  let triples = List.filteri (fun i _ -> i < 10) ds.Publications.triples in
  Alcotest.(check bool) "bulk insert completes" true
    (await (Tstore.dht (Unistore.tstore t)).Dht.sim (fun k ->
        Tstore.insert_bulk (Unistore.tstore t) ~origin:1 triples ~k));
  Unistore.settle t;
  (* All three index entries of each triple must resolve. *)
  List.iter
    (fun (tr : Unistore.Triple.t) ->
      let r =
        await (Unistore.dht t).Dht.sim (fun k -> (Unistore.dht t).Dht.lookup ~origin:6 ~key:
            (Keys.attr_value_key tr.Unistore.Triple.attr tr.Unistore.Triple.value) ~k)
      in
      Alcotest.(check bool) "attr-value entry resolves" true
        (r.Dht.complete && r.Dht.items <> []);
      let ro = await (Unistore.dht t).Dht.sim (fun k ->
          (Unistore.dht t).Dht.lookup ~origin:6 ~key:(Keys.oid_key tr.Unistore.Triple.oid) ~k) in
      Alcotest.(check bool) "oid entry resolves" true (ro.Dht.complete && ro.Dht.items <> []))
    triples

(* ------------------------------------------------------------------ *)
(* Settling *)

(* The largest one-way delay of the deployments' [Latency.Lan] model,
   which draws 0.5 + U[0, 1.5) ms. *)
let lan_max_ms = 2.0

let render_trace tr =
  Trace.events tr
  |> List.map (fun (e : Trace.event) ->
         Format.asprintf "%h %d>%d %s %dB #%d %a" e.time e.src e.dst e.kind e.bytes e.corr
           Trace.pp_outcome e.outcome)
  |> String.concat "\n"

(* [settle] returns at quiescence: every finished operation cancelled
   its deadline, so once the last message is delivered nothing is left
   to run, and the clock stops within one link delay of the last send
   instead of jumping to a timeout with nothing to do. *)
let test_settle_at_quiescence () =
  let ds = dataset () in
  let load_traced () =
    let t = deploy ds in
    let tr = Unistore.start_trace t in
    ignore (Unistore.load t ds.Publications.tuples);
    Unistore.settle t;
    (t, tr)
  in
  let t, tr = load_traced () in
  let last_send =
    List.fold_left (fun m (e : Trace.event) -> Float.max m e.time) 0.0 (Trace.events tr)
  in
  Alcotest.(check bool) "the load sent messages" true (last_send > 0.0);
  if Unistore.now t > last_send +. lan_max_ms then
    Alcotest.failf "settle returned at %.3f ms, %.3f ms after the last send" (Unistore.now t)
      (Unistore.now t -. last_send);
  let _, tr' = load_traced () in
  check Alcotest.string "same seed, byte-identical trace" (render_trace tr) (render_trace tr')

(* ------------------------------------------------------------------ *)
(* Concurrent load *)

(* Bulk-insert requests in flight at once, from the trace: request [c]
   is in flight from its first [insert-batch] to its last [multi-found].
   The window starts the next origin when an ack arrives, strictly
   after that ack was sent, so back-to-back requests do not overlap. *)
let max_batches_in_flight tr =
  let spans = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      let widen lo hi =
        let lo', hi' = Option.value (Hashtbl.find_opt spans e.corr) ~default:(lo, hi) in
        Hashtbl.replace spans e.corr (Float.min lo lo', Float.max hi hi')
      in
      match e.kind with
      | "insert-batch" -> widen e.time e.time
      | "multi-found" -> widen infinity e.time
      | _ -> ())
    (Trace.events tr);
  let edges =
    Hashtbl.fold (fun _ (lo, hi) acc -> (lo, 1) :: (hi, -1) :: acc) spans []
    |> List.sort (fun (ta, da) (tb, db) ->
           match Float.compare ta tb with 0 -> Int.compare da db | c -> c)
  in
  snd (List.fold_left (fun (n, m) (_, d) -> (n + d, max m (n + d))) (0, 0) edges)

(* Every peer's store with each key's items in id order, digested as
   (item count, MD5 of one "peer key id version payload" line per item):
   what landed where, whatever order each replica received it in. *)
let store_digest t =
  let b = Buffer.create (1 lsl 16) in
  let count = ref 0 in
  List.iter
    (fun (nd : Unistore_pgrid.Node.t) ->
      Store.to_list nd.store
      |> List.stable_sort (fun (a : Store.item) (b : Store.item) ->
             match String.compare a.key b.key with 0 -> String.compare a.item_id b.item_id | c -> c)
      |> List.iter (fun (i : Store.item) ->
             incr count;
             Printf.bprintf b "%d %S %S %d %S\n" nd.id i.key i.item_id i.version i.payload))
    (Overlay.nodes (overlay_exn t));
  (!count, Digest.to_hex (Digest.string (Buffer.contents b)))

(* The test deployment's figures when [load] shipped one origin's batch
   at a time: the simulated ms from the load's start to its last ack,
   and the store digest after it settled. *)
let sequential_load_ms = 288.861
let loaded_store = (2736, "0efbe4be59cb7cb25905714fab67a8b9")

(* [load] keeps several origins' batches in flight: the load ends in at
   most a quarter of the sequential makespan, the trace never shows more
   batches outstanding than the window, and the stores hold exactly what
   the sequential load put there. ("returns at quiescence" checks that
   two same-seed loads give a byte-identical trace.) *)
let test_windowed_load () =
  let ds = dataset () in
  let t = deploy ds in
  let tr = Unistore.start_trace t in
  let start = Unistore.now t in
  let stored = Unistore.load t ds.Publications.tuples in
  let makespan = Unistore.now t -. start in
  Unistore.settle t;
  check Alcotest.int "every triple stored" (List.length ds.Publications.triples) stored;
  if makespan > sequential_load_ms /. 4.0 then
    Alcotest.failf "load took %.3f ms, more than a quarter of %.3f" makespan sequential_load_ms;
  check Alcotest.int "batches in flight" 8 (max_batches_in_flight tr);
  check Alcotest.(pair int string) "stores" loaded_store (store_digest t)

let () =
  Alcotest.run "unistore_bulk"
    [
      ( "overlay",
        [
          Alcotest.test_case "bulk_insert stores everything" `Quick test_bulk_insert;
          Alcotest.test_case "chord bulk_insert = per-item inserts" `Quick
            test_chord_bulk_insert_stores;
          Alcotest.test_case "empty bulk insert" `Quick test_bulk_insert_empty;
          Alcotest.test_case "multi_lookup = singleton lookups" `Quick
            test_multi_lookup;
        ] );
      ( "differential",
        [
          Alcotest.test_case "batched = unbatched on load and queries" `Quick
            test_batched_load_and_queries_agree;
          Alcotest.test_case "arms agree under 20% loss" `Quick test_arms_agree_under_loss;
          Alcotest.test_case "retransmit recovers bulk insert" `Quick
            test_retransmit_recovers_bulk_insert;
        ] );
      ( "cost",
        [ Alcotest.test_case "env and bindjoin scaling" `Quick test_cost_env_reflects_batching ] );
      ( "tstore",
        [ Alcotest.test_case "insert_bulk places all indexes" `Quick test_tstore_insert_bulk ] );
      ( "settle",
        [ Alcotest.test_case "returns at quiescence" `Quick test_settle_at_quiescence ] );
      ( "load",
        [ Alcotest.test_case "origins load through a window" `Quick test_windowed_load ] );
    ]
