(* E6: range queries — P-Grid native vs. Chord + distributed trie.

   Paper (§2): "P-Grid supports efficient substring search and range
   queries through its basic infrastructure, where other DHTs require
   additional structures (e.g., in Chord an additional trie-structure is
   constructed on top of its ring-based overlay network to support range
   queries)."

   We sweep range selectivity on the 'age' attribute and compare four
   physical range implementations: P-Grid shower (parallel), P-Grid
   sequential (min-bound traversal), Chord + DHT-hosted trie, and Chord
   flooding. Correctness is checked against a local oracle: the
   experiment exits non-zero unless every row finds exactly the oracle's
   count. *)

module Value = Unistore.Value
module Triple = Unistore.Triple
module Keys = Unistore_triple.Keys
module Tstore = Unistore_triple.Tstore
module Dht = Unistore_triple.Dht
module Overlay = Unistore_pgrid.Overlay
module Message = Unistore_pgrid.Message
module Publications = Unistore_workload.Publications

let age_ranges = [ (30, 33, "~10%"); (30, 40, "~25%"); (24, 69, "100%") ]

let oracle_count ds lo hi =
  List.length
    (List.filter
       (fun (tr : Triple.t) ->
         String.equal tr.Triple.attr "age"
         && match Value.as_int tr.Triple.value with Some a -> a >= lo && a <= hi | None -> false)
       ds.Publications.triples)

let run () =
  Common.section "E6: range queries — native (P-Grid) vs. added structure (Chord+trie)"
    "\"P-Grid supports efficient ... range queries through its basic \
     infrastructure, where other DHTs require additional structures\"";
  let pg_store, ds = Common.build_pubs ~peers:64 ~authors:60 ~qgrams:false ~seed:61 () in
  let ch_store, _ =
    Common.build_pubs ~peers:64 ~authors:60 ~qgrams:false ~seed:61
      ~overlay:Unistore.Chord_trie ()
  in
  let pg_ts = Unistore.tstore pg_store and ch_ts = Unistore.tstore ch_store in
  let pg_ov = Option.get (Unistore.pgrid pg_store) in
  let rows = ref [] and wrong = ref [] in
  List.iter
    (fun (lo, hi, label) ->
      let expect = oracle_count ds lo hi in
      let add name msgs latency found =
        if found <> expect then wrong := Printf.sprintf "%s [%d,%d]" name lo hi :: !wrong;
        rows :=
          [
            Printf.sprintf "[%d,%d] %s" lo hi label;
            name;
            Common.i msgs;
            Common.f1 latency;
            Printf.sprintf "%d/%d" found expect;
          ]
          :: !rows
      in
      (* P-Grid shower. *)
      let (triples, (r : Dht.result)), msgs =
        Common.await_metered (Tstore.dht pg_ts) (fun k ->
            Tstore.by_attr_range pg_ts ~origin:3 ~attr:"age" ~lo:(Value.I lo) ~hi:(Value.I hi) ~k)
      in
      add "pgrid shower" msgs r.Dht.latency (List.length triples);
      (* P-Grid sequential (min-bound traversal), driven at overlay level. *)
      let klo, khi = Keys.attr_range "age" ~lo:(Value.I lo) ~hi:(Value.I hi) in
      let before = Unistore.messages_sent pg_store in
      let r =
        Common.await (Overlay.sim pg_ov) (fun k ->
            Overlay.range pg_ov ~origin:3 ~strategy:Message.Sequential ~lo:klo ~hi:khi ~k ())
      in
      add "pgrid sequential"
        (Unistore.messages_sent pg_store - before)
        r.Overlay.latency (List.length r.Overlay.items);
      (* Chord + trie. *)
      let (triples, (r : Dht.result)), msgs =
        Common.await_metered (Tstore.dht ch_ts) (fun k ->
            Tstore.by_attr_range ch_ts ~origin:3 ~attr:"age" ~lo:(Value.I lo) ~hi:(Value.I hi) ~k)
      in
      add "chord+trie" msgs r.Dht.latency (List.length triples);
      (* Chord flooding. *)
      let (triples, (r : Dht.result)), msgs =
        Common.await_metered (Tstore.dht ch_ts) (fun k ->
            Tstore.scan ch_ts ~origin:3 ~k ~pred:(fun tr ->
                String.equal tr.Triple.attr "age"
                &&
                match Value.as_int tr.Triple.value with
                | Some a -> a >= lo && a <= hi
                | None -> false))
      in
      add "chord flood" msgs r.Dht.latency (List.length triples))
    age_ranges;
  Common.print_table [ "range"; "implementation"; "msgs"; "latency_ms"; "found" ] (List.rev !rows);
  if !wrong <> [] then begin
    Printf.printf "\nFAIL: found differs from the oracle count on %s\n"
      (String.concat ", " (List.rev !wrong));
    exit 1
  end;
  (* Insert cost comparison: the trie's write amplification. *)
  Common.subsection "insert cost (index maintenance per triple)";
  let one_triple = Triple.make ~oid:"probe1" ~attr:"age" (Value.I 33) in
  let cost store ts =
    let before = Unistore.messages_sent store in
    ignore (Common.await (Unistore.sim store) (fun k -> Tstore.insert ts ~origin:5 one_triple ~k));
    Unistore.messages_sent store - before
  in
  Printf.printf "p-grid insert: %d msgs;  chord+trie insert: %d msgs\n" (cost pg_store pg_ts)
    (cost ch_store ch_ts);
  (* A batch shares its routing on P-Grid and its trie markers on Chord. *)
  let batch =
    List.init 40 (fun i ->
        Triple.make ~oid:(Printf.sprintf "probe%d" (i + 2)) ~attr:"age" (Value.I (24 + i)))
  in
  let bulk_cost store ts =
    let before = Unistore.messages_sent store in
    ignore (Common.await (Unistore.sim store) (fun k -> Tstore.insert_bulk ts ~origin:5 batch ~k));
    float_of_int (Unistore.messages_sent store - before) /. float_of_int (List.length batch)
  in
  Printf.printf
    "batched insert of %d triples: p-grid %.1f msgs/triple;  chord+trie %.1f msgs/triple\n"
    (List.length batch) (bulk_cost pg_store pg_ts) (bulk_cost ch_store ch_ts);
  Printf.printf
    "\nverdict: P-Grid answers ranges natively; Chord pays an extra distributed \
     trie both at insert time (write amplification) and at query time (trie \
     traversal lookups)\n"
