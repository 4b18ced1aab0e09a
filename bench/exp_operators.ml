(* E8: physical operator alternatives and cost-model accuracy.

   Paper (§2/§3): "For each logical operator there are several physical
   implementations available ... They differ in the kind of used indexes,
   applied routing strategy, parallelism, etc."; "there exist several
   implementations of physical operators, each beneficial in special
   situations — which is captured by an appropriate cost model"; and §4:
   executing identical queries while influencing the optimizer yields
   different performance.

   For one equality predicate and one range predicate we run every
   applicable physical access path, compare measured message cost against
   the cost model's prediction, and print per predicate whether the
   model orders the paths as measured and whether its rank-1 path is
   the measured cheapest. *)

module Value = Unistore.Value
module Triple = Unistore.Triple
module Tstore = Unistore_triple.Tstore
module Cost = Unistore_qproc.Cost
module Qstats = Unistore_qproc.Qstats
module Optimizer = Unistore_qproc.Optimizer
module Physical = Unistore_qproc.Physical
module Parser = Unistore_vql.Parser
module Algebra = Unistore_vql.Algebra

(* The cost model's verdict on one scenario, from the rows its table
   printed as (access path, predicted messages, measured messages): a
   pair disagrees when the model predicts one path strictly cheaper and
   it measures strictly dearer; rank 1 is the path with the lowest
   prediction (the first listed on a tie). *)
let print_verdict rows =
  let disagreeing =
    List.concat_map
      (fun (la, pa, ma) ->
        List.filter_map
          (fun (lb, pb, mb) -> if pa < pb && ma > mb then Some (la, pa, ma, lb, pb, mb) else None)
          rows)
      rows
  in
  let rank1 =
    List.fold_left (fun ((_, p1, _) as best) ((_, p, _) as r) -> if p < p1 then r else best)
      (List.hd rows) rows
  in
  let cheapest = List.fold_left (fun acc (_, _, m) -> min acc m) max_int rows in
  let label1, _, msgs1 = rank1 in
  Printf.printf "\nverdict: predicted order %s measured order; rank 1 %s (%d msgs) %s\n"
    (if disagreeing = [] then "matches" else "differs from")
    label1 msgs1
    (if msgs1 = cheapest then "is the measured cheapest"
     else Printf.sprintf "is not the measured cheapest (%d msgs)" cheapest);
  List.iter
    (fun (la, pa, ma, lb, pb, mb) ->
      Printf.printf "  disagreeing pair: %s predicted %.1f < %s %.1f, measured %d > %d\n" la pa
        lb pb ma mb)
    disagreeing

let run () =
  Common.section "E8: several physical operators per logical operator + cost model"
    "\"several implementations of physical operators, each beneficial in special \
     situations — which is captured by an appropriate cost model\"";
  let store, ds = Common.build_pubs ~peers:128 ~authors:60 ~seed:81 () in
  let ts = Unistore.tstore store in
  let stats = Unistore.stats store in
  let env = Cost.env_of_dht (Unistore.dht store) ~replication:2 in
  ignore ds;
  let measure access pattern_pred =
    let before = Unistore.messages_sent store in
    let triples, (r : Unistore_triple.Dht.result) =
      Common.await (Unistore.sim store) (fun k ->
          match (access : Cost.access) with
          | Cost.AAttrValue (a, v) -> Tstore.by_attr_value ts ~origin:9 ~attr:a v ~k
          | Cost.AAttrRange (a, Some lo, Some hi) ->
            Tstore.by_attr_range ts ~origin:9 ~attr:a ~lo ~hi ~k
          | Cost.AAttrAll a -> Tstore.by_attr_all ts ~origin:9 ~attr:a ~k
          | Cost.ABroadcast -> Tstore.scan ts ~origin:9 ~pred:pattern_pred ~k
          | _ -> failwith "unsupported access in E8")
    in
    let actual_msgs = Unistore.messages_sent store - before in
    (actual_msgs, r.latency, List.length (List.filter pattern_pred triples))
  in
  let scenario name accesses pred =
    Common.subsection name;
    let measured =
      List.map
        (fun access ->
          let est = Cost.estimate_access env stats access in
          let msgs, lat, found = measure access pred in
          (Format.asprintf "%a" Cost.pp_access access, est, msgs, lat, found))
        accesses
    in
    Common.print_table
      [ "access path"; "msgs"; "msgs_pred"; "lat_ms"; "lat_pred"; "rows" ]
      (List.map
         (fun (label, est, msgs, lat, found) ->
           [
             label;
             Common.i msgs;
             Common.f1 est.Cost.messages;
             Common.f1 lat;
             Common.f1 est.Cost.latency;
             Common.i found;
           ])
         measured);
    print_verdict (List.map (fun (label, est, msgs, _, _) -> (label, est.Cost.messages, msgs)) measured)
  in
  (* Equality predicate: series = 'ICDE'. *)
  let eq_pred (tr : Triple.t) =
    String.equal tr.Triple.attr "series" && Value.equal tr.Triple.value (Value.S "ICDE")
  in
  scenario "series = 'ICDE' (equality)"
    [
      Cost.AAttrValue ("series", Value.S "ICDE");
      Cost.AAttrAll "series";
      Cost.ABroadcast;
    ]
    eq_pred;
  (* Range predicate: 30 <= age < 40. *)
  let range_pred (tr : Triple.t) =
    String.equal tr.Triple.attr "age"
    && match Value.as_int tr.Triple.value with Some a -> a >= 30 && a <= 40 | None -> false
  in
  scenario "age in [30,40] (range)"
    [
      Cost.AAttrRange ("age", Some (Value.I 30), Some (Value.I 40));
      Cost.AAttrAll "age";
      Cost.ABroadcast;
    ]
    range_pred;
  (* Top-N: full region scan + local sort vs. early-terminating traversal
     in key order. A dedicated wide-region dataset (one attribute, 3000
     distinct values over 64 peers) makes the asymptotics visible. *)
  Common.subsection "top-5 of a 3000-value attribute (ranking operator implementations)";
  let skew_triples = Unistore_workload.Skewed.generate (Unistore_util.Rng.create 83) ~n:3000 ~skew:0.0 ~distinct:3000 () in
  let topn_store =
    Unistore.create
      ~sample_keys:(Unistore_workload.Skewed.sample_keys skew_triples)
      { Unistore.default_config with peers = 64; seed = 84; qgram_index = false }
  in
  let topn_ts = Unistore.tstore topn_store in
  List.iteri
    (fun idx tr ->
      ignore
        (Common.await (Unistore.sim topn_store) (fun k ->
             Tstore.insert topn_ts ~origin:(idx mod 64) tr ~k)))
    skew_triples;
  Unistore.settle topn_store;
  let topn_rows =
    List.map
      (fun (name, f) ->
        let before = Unistore.messages_sent topn_store in
        let triples, (r : Unistore_triple.Dht.result) = f () in
        let msgs = Unistore.messages_sent topn_store - before in
        [ name; Common.i msgs; Common.f1 r.latency; Common.i (List.length triples) ])
      [
        ( "scan-all + sort",
          fun () ->
            let triples, r =
              Common.await (Unistore.sim topn_store) (fun k ->
                  Tstore.by_attr_all topn_ts ~origin:9 ~attr:"v" ~k)
            in
            let sorted =
              List.sort
                (fun (a : Unistore.Triple.t) b ->
                  Unistore.Value.compare a.Unistore.Triple.value b.Unistore.Triple.value)
                triples
            in
            (List.filteri (fun i _ -> i < 5) sorted, r) );
        ( "budgeted traversal",
          fun () ->
            Common.await (Unistore.sim topn_store) (fun k ->
                Tstore.top_n_by_attr topn_ts ~origin:9 ~attr:"v" ~n:5 ~k ()) );
      ]
  in
  Common.print_table [ "implementation"; "msgs"; "lat_ms"; "rows" ] topn_rows;
  (* Does the optimizer pick the best? *)
  Common.subsection "optimizer choice";
  let q = Parser.parse_exn "SELECT ?a WHERE { (?a,'series',?x) FILTER ?x = 'ICDE' }" in
  let cmap = Algebra.var_constraints q.Unistore_vql.Ast.filters in
  let cands =
    Optimizer.access_candidates env stats ~qgrams:true cmap (List.hd q.Unistore_vql.Ast.patterns)
  in
  List.iteri
    (fun idx (a, e) ->
      Printf.printf "  rank %d: %s (predicted %.1f msgs)%s\n" (idx + 1)
        (Format.asprintf "%a" Cost.pp_access a)
        e.Cost.messages
        (if idx = 0 then "  <- chosen" else ""))
    cands
