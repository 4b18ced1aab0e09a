(* Shared helpers for the experiment harness. *)

module Rng = Unistore_util.Rng
module Stats = Unistore_util.Stats
module Latency = Unistore_sim.Latency
module Publications = Unistore_workload.Publications
module Value = Unistore.Value
module Triple = Unistore.Triple

(* Wait for one asynchronous operation: every layer below the facade is
   continuation-passing. *)
let await sim start =
  match Unistore_sim.Sim.await sim start with
  | Some v -> v
  | None -> failwith "bench: the event queue drained before the operation finished"

(* [await] on a DHT, also counting the messages sent meanwhile. *)
let await_metered (dht : Unistore_triple.Dht.t) start =
  let m0 = dht.Unistore_triple.Dht.total_sent () in
  let v = await dht.Unistore_triple.Dht.sim start in
  (v, dht.Unistore_triple.Dht.total_sent () - m0)

let section id claim =
  Printf.printf "\n=== %s ===\n" id;
  Printf.printf "paper claim: %s\n\n" claim

let subsection title = Printf.printf "\n-- %s --\n" title

(* Build a deployment preloaded with a publications dataset. *)
let build_pubs ?(peers = 64) ?(authors = 40) ?(seed = 42) ?(latency = Latency.Lan)
    ?(overlay = Unistore.Pgrid) ?(replication = 2) ?(typo_rate = 0.1) ?(qgrams = true)
    ?(cache = true) () =
  let rng = Rng.create (seed + 1) in
  let ds =
    Publications.generate rng { Publications.default_params with n_authors = authors; typo_rate }
  in
  let store =
    Unistore.create
      ~sample_keys:(Publications.sample_keys ds)
      {
        Unistore.default_config with
        peers;
        seed;
        latency;
        overlay;
        replication;
        qgram_index = qgrams;
        cache;
      }
  in
  ignore (Unistore.load store ds.Publications.tuples);
  Unistore.set_stats_of_triples store ds.Publications.triples;
  Unistore.settle store;
  (store, ds)

let run_query_exn store ?origin ?strategy ?expand_mappings src =
  match Unistore.query store ?origin ?strategy ?expand_mappings src with
  | Ok r -> r
  | Error e -> failwith ("query failed: " ^ e)

(* Simple fixed-width table printing. *)
let print_row widths cells =
  List.iter2 (fun w c -> Printf.printf "%-*s  " w c) widths cells;
  print_newline ()

let print_table header rows =
  let widths =
    List.mapi
      (fun i h -> List.fold_left (fun w r -> max w (String.length (List.nth r i))) (String.length h) rows)
      header
  in
  print_row widths header;
  print_row widths (List.map (fun w -> String.make w '-') widths);
  List.iter (print_row widths) rows

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let i x = string_of_int x
let pct x = Printf.sprintf "%.0f%%" (100.0 *. x)
