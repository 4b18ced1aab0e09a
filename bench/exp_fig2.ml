(* E1 (Fig. 2): the paper's triple-placement example.

   Two logical tuples
     (a12, 'Similarity...', 'ICDE 2006 - Workshops', 2006)
     (v34, 'Progressive...', 'ICDE 2005', 2005)
   over schema (OID, title, confname, year) become 6 triples; each triple
   is indexed under its OID, A#v and v keys: 18 index entries distributed
   over a network of 8 peers. We print the resulting placement map and
   verify that every entry is stored and retrievable; the run exits 1
   unless all 6 triples are stored and all 18 entries are retrieved. *)

module Value = Unistore.Value
module Triple = Unistore.Triple
module Keys = Unistore_triple.Keys
module Tstore = Unistore_triple.Tstore
module Node = Unistore_pgrid.Node
module Overlay = Unistore_pgrid.Overlay
module Store = Unistore_pgrid.Store
module Bitkey = Unistore_util.Bitkey
module Ophash = Unistore_util.Ophash

let tuples =
  [
    ( "a12",
      [
        ("title", Value.S "Similarity...");
        ("confname", Value.S "ICDE 2006 - WS");
        ("year", Value.I 2006);
      ] );
    ( "v34",
      [
        ("title", Value.S "Progressive...");
        ("confname", Value.S "ICDE 2005");
        ("year", Value.I 2005);
      ] );
  ]

let run () =
  Common.section "E1 / Fig. 2: triple placement in an 8-peer trie"
    "2 example tuples become 6 triples, each indexed by OID, A#v and v: 18 index \
     entries distributed over 8 peers";
  let triples = List.concat_map (fun (oid, fields) -> Triple.tuple_to_triples ~oid fields) tuples in
  let keys_of (tr : Triple.t) =
    [
      ("OID", Keys.oid_key tr.Triple.oid);
      ("A#v", Keys.attr_value_key tr.Triple.attr tr.Triple.value);
      ("v", Keys.value_key tr.Triple.value);
    ]
  in
  let sample = List.concat_map (fun tr -> List.map snd (keys_of tr)) triples in
  let store =
    Unistore.create ~sample_keys:sample
      { Unistore.default_config with peers = 8; replication = 1; qgram_index = false; seed = 11 }
  in
  let stored = Unistore.load store tuples in
  Unistore.settle store;
  Printf.printf "triples stored: %d (expected 6, giving %d index entries)\n\n" stored
    (3 * stored);
  let ov = Option.get (Unistore.pgrid store) in
  Printf.printf "peer paths (the virtual binary trie):\n";
  List.iter
    (fun (nd : Node.t) ->
      Printf.printf "  peer%d: path=%-8s items=%d\n" nd.Node.id
        (Bitkey.to_string nd.Node.path) (Store.size nd.Node.store))
    (Overlay.nodes ov);
  Printf.printf "\nindex-entry placement (cf. Fig. 2's \"hashkey -> triple\" sketch):\n";
  let rows = ref [] in
  let entries = ref 0 in
  List.iter
    (fun (tr : Triple.t) ->
      List.iter
        (fun (family, key) ->
          incr entries;
          let holders =
            Overlay.Oracle.responsible ov key
            |> List.filter (fun (nd : Node.t) -> Store.find nd.Node.store key <> [])
            |> List.map (fun (nd : Node.t) -> Printf.sprintf "peer%d" nd.Node.id)
          in
          rows :=
            [
              Printf.sprintf "%s->(%s,'%s',%s)" family tr.Triple.oid tr.Triple.attr
                (Value.to_display tr.Triple.value);
              String.concat "," holders;
            ]
            :: !rows)
        (keys_of tr))
    triples;
  Common.print_table [ "index entry"; "stored at" ] (List.rev !rows);
  (* Verification: all 18 entries retrievable through the overlay. *)
  let ts = Unistore.tstore store in
  let ok = ref 0 in
  List.iter
    (fun (tr : Triple.t) ->
      let await start = fst (Common.await (Unistore.sim store) start) in
      let found_oid = await (fun k -> Tstore.by_oid ts ~origin:0 tr.Triple.oid ~k) in
      let found_av =
        await (fun k -> Tstore.by_attr_value ts ~origin:0 ~attr:tr.Triple.attr tr.Triple.value ~k)
      in
      let found_v = await (fun k -> Tstore.by_value ts ~origin:0 tr.Triple.value ~k) in
      let has l = List.exists (fun x -> Triple.equal x tr) l in
      if has found_oid then incr ok;
      if has found_av then incr ok;
      if has found_v then incr ok)
    triples;
  Printf.printf "\nretrievable index entries: %d/%d\n" !ok !entries;
  let reproduced = stored = 6 && !entries = 18 && !ok = 18 in
  Printf.printf "verdict: %s\n"
    (if reproduced then
       "the 2 tuples become 6 triples whose 18 index entries are all stored and retrievable, \
        as in Fig. 2"
     else "NOT reproduced: a triple or an index entry is missing");
  if not reproduced then exit 1
