(* Tests for the bulk-operation pipeline: batched shower inserts,
   in-network range aggregation and multi-key bind-join probes.

   The pipeline is a pure transport optimization that P-Grid always
   runs, so the tests are mostly differential: a P-Grid deployment and
   a Chord+trie deployment of the same dataset (Chord has no batch
   paths) must answer every query identically — P-Grid also under
   message loss — while P-Grid's metrics show the pipeline actually
   engaged. *)

module Rng = Unistore_util.Rng
module Metrics = Unistore_obs.Metrics
module Overlay = Unistore_pgrid.Overlay
module Store = Unistore_pgrid.Store
module Dht = Unistore_triple.Dht
module Keys = Unistore_triple.Keys
module Tstore = Unistore_triple.Tstore
module Cost = Unistore_qproc.Cost
module Binding = Unistore_qproc.Binding
module Publications = Unistore_workload.Publications

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
      cache = Unistore.no_cache;
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
    (* narrow range window (aggregated shower) *)
    "SELECT ?a,?g WHERE { (?a,'age',?g) FILTER ?g >= 30 FILTER ?g <= 36 }";
    (* whole-attribute window (forked shower, in-network merging) *)
    "SELECT ?p,?y WHERE { (?p,'year',?y) FILTER ?y >= 1998 FILTER ?y <= 2007 }";
    (* bind-join whose probe round batches into multi-lookups *)
    "SELECT ?a,?att,?v WHERE { (?a,'num_of_pubs',2) (?a,?att,?v) }";
    (* exact lookups *)
    "SELECT ?n WHERE { (?a,'name',?n) }";
  ]

(* ------------------------------------------------------------------ *)
(* Overlay-level operations *)

let overlay_exn t = match Unistore.pgrid t with Some ov -> ov | None -> assert false

let test_bulk_insert_sync () =
  let ds = dataset () in
  let t = deploy ds in
  let ov = overlay_exn t in
  let items =
    List.mapi
      (fun i k -> { Store.key = k; item_id = Printf.sprintf "bi%d" i; payload = k; version = 0 })
      [ "bulk#a"; "bulk#b"; "bulk#c"; "bulk#d"; "bulk#e"; "bulk#f"; "bulk#g" ]
  in
  let r = Overlay.bulk_insert_sync ov ~origin:2 ~items in
  Alcotest.(check bool) "complete" true r.Overlay.complete;
  List.iter
    (fun (it : Store.item) ->
      let found = Overlay.lookup_sync ov ~origin:7 ~key:it.Store.key in
      Alcotest.(check bool)
        (Printf.sprintf "key %s stored" it.Store.key)
        true
        (found.Overlay.complete
        && List.exists
             (fun (i : Store.item) -> String.equal i.Store.item_id it.Store.item_id)
             found.Overlay.items))
    items;
  let m = Unistore.metrics t in
  Alcotest.(check bool) "batches sent" true (Metrics.counter m "batch.bulk.batches" > 0)

let test_bulk_insert_empty () =
  let ds = dataset () in
  let t = deploy ds in
  let r = Overlay.bulk_insert_sync (overlay_exn t) ~origin:0 ~items:[] in
  Alcotest.(check bool) "empty batch trivially complete" true r.Overlay.complete

let test_multi_lookup_sync () =
  let ds = dataset () in
  let t, _ = loaded ds in
  let ov = overlay_exn t in
  let keys =
    (List.filteri (fun i _ -> i < 6) ds.Publications.triples
    |> List.map (fun (tr : Unistore.Triple.t) ->
           Keys.attr_value_key tr.Unistore.Triple.attr tr.Unistore.Triple.value))
    @ [ "missing#key" ]
  in
  let found, r = Overlay.multi_lookup_sync ov ~origin:4 ~keys in
  Alcotest.(check bool) "complete" true r.Overlay.complete;
  check Alcotest.int "one entry per distinct key"
    (List.length (List.sort_uniq String.compare keys))
    (List.length found);
  (* Each key's answer must equal a routed singleton lookup's. *)
  List.iter
    (fun (key, items) ->
      let single = Overlay.lookup_sync ov ~origin:9 ~key in
      let ids l = List.sort compare (List.map (fun (i : Store.item) -> i.Store.item_id) l) in
      check Alcotest.(list string) ("key " ^ key) (ids single.Overlay.items) (ids items))
    found;
  Alcotest.(check bool) "missing key present but empty" true
    (match List.assoc_opt "missing#key" found with Some [] -> true | _ -> false);
  let m = Unistore.metrics t in
  Alcotest.(check bool) "probe batches sent" true (Metrics.counter m "batch.probe.batches" > 0)

(* ------------------------------------------------------------------ *)
(* Differential: P-Grid (batched) vs Chord+trie (no batch paths) *)

let test_batched_load_and_queries_agree () =
  (* Enough authors that the num_of_pubs bind-join probes at least two
     deduplicated keys per round, so multi-key probing engages. *)
  let ds = dataset ~authors:24 () in
  (* Enough peers that attribute regions span several leaves, so range
     showers fork and the converge-cast tree actually merges. *)
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
  (* The query phase exercised aggregation and multi-key probes. *)
  Alcotest.(check bool) "in-network merges happened" true
    (Metrics.counter mb "batch.agg.merged" > 0);
  Alcotest.(check bool) "complete flushes happened" true
    (Metrics.counter mb "batch.agg.flush.complete" > 0);
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
  let r = Overlay.bulk_insert_sync ov ~origin:2 ~items in
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
            let found = Overlay.lookup_sync ov ~origin:5 ~key:it.Store.key in
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
  let b = deploy ds in
  let u = deploy ~overlay:Unistore.Chord_trie ds in
  let env_b = Cost.env_of_dht (Unistore.dht b) ~replication:2 in
  let env_u = Cost.env_of_dht (Unistore.dht u) ~replication:2 in
  Alcotest.(check bool) "batched probes advertised" true env_b.Cost.batched_probes;
  Alcotest.(check bool) "unbatched probes advertised" false env_u.Cost.batched_probes;
  (* Per-key probing scales with the left side; batched probing must
     not (it is bounded by the region count). *)
  let cb = Cost.bindjoin_cost env_b ~card_left:500.0 ~cardinality:10.0 in
  let cu = Cost.bindjoin_cost env_u ~card_left:500.0 ~cardinality:10.0 in
  Alcotest.(check bool) "batched round cheaper at scale" true
    (cb.Cost.messages < cu.Cost.messages);
  let cu2 = Cost.bindjoin_cost env_u ~card_left:1000.0 ~cardinality:10.0 in
  check (Alcotest.float 1e-6) "unbatched scales linearly" (2.0 *. cu.Cost.messages)
    cu2.Cost.messages;
  let cb2 = Cost.bindjoin_cost env_b ~card_left:1000.0 ~cardinality:10.0 in
  check (Alcotest.float 1e-6) "batched saturates at the region count" cb.Cost.messages
    cb2.Cost.messages

(* ------------------------------------------------------------------ *)
(* Tstore bulk path *)

let test_tstore_insert_bulk () =
  let ds = dataset () in
  let t = deploy ds in
  let triples = List.filteri (fun i _ -> i < 10) ds.Publications.triples in
  Alcotest.(check bool) "bulk insert completes" true
    (Tstore.insert_bulk_sync (Unistore.tstore t) ~origin:1 triples);
  Unistore.settle t;
  (* All three index entries of each triple must resolve. *)
  List.iter
    (fun (tr : Unistore.Triple.t) ->
      let r =
        Dht.lookup_sync (Unistore.dht t) ~origin:6
          ~key:
            (Keys.attr_value_key tr.Unistore.Triple.attr tr.Unistore.Triple.value)
      in
      Alcotest.(check bool) "attr-value entry resolves" true
        (r.Dht.complete && r.Dht.items <> []);
      let ro = Dht.lookup_sync (Unistore.dht t) ~origin:6 ~key:(Keys.oid_key tr.Unistore.Triple.oid) in
      Alcotest.(check bool) "oid entry resolves" true (ro.Dht.complete && ro.Dht.items <> []))
    triples

let () =
  Alcotest.run "unistore_bulk"
    [
      ( "overlay",
        [
          Alcotest.test_case "bulk_insert_sync stores everything" `Quick test_bulk_insert_sync;
          Alcotest.test_case "empty bulk insert" `Quick test_bulk_insert_empty;
          Alcotest.test_case "multi_lookup_sync = singleton lookups" `Quick
            test_multi_lookup_sync;
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
    ]
