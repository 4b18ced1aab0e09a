module Store = Unistore_pgrid.Store
module Sim = Unistore_sim.Sim
module Net = Unistore_sim.Net
module Overlay = Unistore_pgrid.Overlay
module Chord = Unistore_chord.Chord
module Trie_index = Unistore_chord.Trie_index
module Cps = Unistore_util.Cps

type result = Store.result = {
  items : Store.item list;
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
  latency : float;
}

type filter = Unistore_pgrid.Message.filter = {
  bloom : Unistore_util.Bloom.t;
  admits : Store.item -> bool;
}

type t = {
  name : string;
  peers : int;
  sim : Sim.t;
  insert :
    origin:int -> key:string -> item_id:string -> payload:string -> k:(bool -> unit) -> unit;
  delete : origin:int -> key:string -> item_id:string -> k:(bool -> unit) -> unit;
  lookup : origin:int -> key:string -> k:(result -> unit) -> unit;
  range : origin:int -> lo:string -> hi:string -> k:(result -> unit) -> unit;
  filtered_range :
    origin:int -> filter:filter option -> lo:string -> hi:string -> k:(result -> unit) -> unit;
  range_topn :
    (origin:int -> lo:string -> hi:string -> n:int -> k:(result -> unit) -> unit) option;
  prefix : origin:int -> filter:filter option -> prefix:string -> k:(result -> unit) -> unit;
  broadcast : origin:int -> pred:(Store.item -> bool) -> k:(result -> unit) -> unit;
  scan_reduce :
    (origin:int ->
    lo:string ->
    hi:string ->
    pred:(Store.item -> bool) ->
    reduce:(Store.item list -> Store.item list) ->
    k:(result -> unit) ->
    unit)
    option;
  bulk_insert : origin:int -> items:Store.item list -> k:(result -> unit) -> unit;
  multi_lookup :
    origin:int -> keys:string list -> k:((string * Store.item list) list * result -> unit) -> unit;
  send_task : src:int -> dst:int -> bytes:int -> k:(bool -> unit) -> unit;
  total_sent : unit -> int;
  expected_latency : float;
  depth : unit -> int;
  responsible_peer : string -> int option;
  stat_gossip : stat_gossip option;
}

and stat_gossip = { round : unit -> unit; cache_of : int -> Unistore_cache.Statcache.t }

(* A task sent to a dead or cut-off peer never runs: fail the hop after
   the substrate's request timeout. Arrival cancels the deadline, and a
   task arriving after it fired is ignored, so [k] fires exactly once
   either way. *)
let task_with_deadline sim ~timeout_ms send ~src ~dst ~bytes ~k =
  let deadline = Sim.timer sim ~delay:timeout_ms (fun () -> k false) in
  send ~src ~dst ~bytes (fun _ -> if Sim.cancel sim deadline then k true)

(* ------------------------------------------------------------------ *)

let of_pgrid ov =
  let net = Overlay.net ov in
  {
    name = "pgrid";
    peers = Overlay.node_count ov;
    sim = Overlay.sim ov;
    insert =
      (fun ~origin ~key ~item_id ~payload ~k ->
        Overlay.insert ov ~origin ~key ~item_id ~payload
          ~k:(fun r -> k r.Overlay.complete)
          ());
    delete =
      (fun ~origin ~key ~item_id ~k ->
        Overlay.delete ov ~origin ~key ~item_id ~k:(fun r -> k r.Overlay.complete));
    lookup = Overlay.lookup ov;
    range = (fun ~origin ~lo ~hi ~k -> Overlay.range ov ~origin ~lo ~hi ~k ());
    filtered_range = (fun ~origin ~filter ~lo ~hi ~k -> Overlay.range ov ~origin ?filter ~lo ~hi ~k ());
    range_topn =
      Some
        (fun ~origin ~lo ~hi ~n ~k ->
          Overlay.range ov ~origin ~strategy:Unistore_pgrid.Message.Sequential ~budget:n ~lo ~hi ~k
            ());
    prefix = (fun ~origin ~filter ~prefix ~k -> Overlay.prefix ?filter ov ~origin ~prefix ~k);
    broadcast = (fun ~origin ~pred ~k -> Overlay.broadcast ov ~origin ~pred ~k ());
    scan_reduce =
      Some
        (fun ~origin ~lo ~hi ~pred ~reduce ~k ->
          Overlay.broadcast ov ~origin ~lo ~hi ~reduce ~pred ~k ());
    bulk_insert = Overlay.bulk_insert ov;
    multi_lookup = Overlay.multi_lookup ov;
    send_task =
      task_with_deadline (Overlay.sim ov)
        ~timeout_ms:(Overlay.config ov).Unistore_pgrid.Config.timeout_ms (Overlay.send_task ov);
    total_sent = (fun () -> Net.total_sent net);
    expected_latency = Unistore_sim.Latency.expected (Net.latency net);
    depth = (fun () -> Overlay.depth ov);
    responsible_peer =
      (fun key ->
        Overlay.Oracle.responsible ov key (* srclint: allow oracle item-20 *)
        |> List.find_map (fun (nd : Unistore_pgrid.Node.t) ->
               let id = nd.Unistore_pgrid.Node.id in
               if Net.Oracle.is_alive net id (* srclint: allow oracle item-20 *) then Some id else None));
    stat_gossip =
      Some
        {
          round = (fun () -> Unistore_pgrid.Gossip.stats_round ov ~sample:Stat_sample.of_node);
          cache_of = (fun peer -> (Overlay.node ov peer).Unistore_pgrid.Node.stat_cache);
        };
  }

(* ------------------------------------------------------------------ *)

(* Chord stores bucket-wrapped items; unwrap to the caller's view. *)
let decode_bucket_item (i : Store.item) =
  if String.starts_with ~prefix:"B:" i.Store.key then Trie_index.unwrap_item i else None

let bucket_of key = "B:" ^ Trie_index.hex_of_key key

(* Keys that share a trie bucket share its fetch: one get per distinct
   bucket, all in flight at once. *)
let chord_multi_lookup chord ~origin ~keys ~k =
  let sim = Chord.sim chord in
  let keys = List.sort_uniq String.compare keys in
  let started = Sim.now sim in
  let get bucket ~k = Chord.get chord ~origin ~key:bucket ~k in
  Cps.all get (List.sort_uniq String.compare (List.map bucket_of keys)) ~k:(fun rs ->
      (* Decode each bucket once. [find_all] answers newest first, so the
         items go in last to first and each key keeps its bucket's order. *)
      let by_key = Hashtbl.create 64 in
      List.concat_map (fun (r : result) -> List.filter_map decode_bucket_item r.items) rs
      |> List.rev
      |> List.iter (fun (i : Store.item) -> Hashtbl.add by_key i.Store.key i);
      let found = List.map (fun key -> (key, Hashtbl.find_all by_key key)) keys in
      k (found, Store.side_by_side ~latency:(Sim.now sim -. started) rs))

(* Chord+trie's gets fetch whole buckets, so a filter is applied where
   the answer arrives: rows as on P-Grid, bytes as unfiltered. *)
let receive filter k (r : result) =
  match filter with
  | None -> k r
  | Some f -> k { r with items = List.filter f.admits r.items }

let of_chord_trie chord =
  let n = Chord.node_count chord in
  let log2n =
    let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
    go 0 n
  in
  {
    name = "chord+trie";
    peers = n;
    sim = Chord.sim chord;
    insert =
      (fun ~origin ~key ~item_id ~payload ~k ->
        Trie_index.insert chord ~origin ~key ~item_id ~payload ~k ());
    delete =
      (fun ~origin ~key ~item_id ~k ->
        (* Remove the bucket entry; trie markers stay (they are hints and
           merely cost an empty bucket probe later). *)
        Chord.del chord ~origin ~key:(bucket_of key) ~item_id:(Trie_index.wrap_id ~key item_id)
          ~k:(fun r -> k r.Chord.complete));
    lookup =
      (fun ~origin ~key ~k ->
        Chord.get chord ~origin ~key:(bucket_of key) ~k:(fun r ->
            let items =
              List.filter_map decode_bucket_item r.Chord.items
              |> List.filter (fun (i : Store.item) -> String.equal i.Store.key key)
            in
            k { r with items }));
    range = Trie_index.range chord;
    filtered_range =
      (fun ~origin ~filter ~lo ~hi ~k -> Trie_index.range chord ~origin ~lo ~hi ~k:(receive filter k));
    (* The trie walk fetches its buckets at once, in no key order. *)
    range_topn = None;
    prefix =
      (fun ~origin ~filter ~prefix ~k ->
        let hi = prefix ^ String.make 64 '\xff' in
        Trie_index.range chord ~origin ~lo:prefix ~hi ~k:(receive filter k));
    broadcast =
      (fun ~origin ~pred ~k ->
        let wrapped raw =
          match decode_bucket_item raw with Some i -> pred i | None -> false
        in
        Chord.broadcast chord ~origin ~pred:wrapped ~k:(fun r ->
            (* Every replica of a bucket answers a broadcast: keep the
               first item of each (key, item id), as P-Grid replies do. *)
            let seen = Hashtbl.create 64 in
            let items =
              List.filter_map decode_bucket_item r.Chord.items
              |> List.filter (fun (i : Store.item) ->
                     let id = (i.Store.key, i.Store.item_id) in
                     (not (Hashtbl.mem seen id)) && (Hashtbl.replace seen id (); true))
            in
            k { r with items }));
    (* The trie walk is plain gets answered with whole buckets. *)
    scan_reduce = None;
    bulk_insert = Trie_index.bulk_insert chord;
    multi_lookup = chord_multi_lookup chord;
    send_task =
      task_with_deadline (Chord.sim chord) ~timeout_ms:Chord.timeout_ms (Chord.send_task chord);
    total_sent = (fun () -> Chord.total_sent chord);
    expected_latency = Chord.expected_latency chord;
    depth = (fun () -> log2n);
    responsible_peer =
      (fun key ->
        let p = Chord.Oracle.responsible chord (bucket_of key) (* srclint: allow oracle item-20 *) in
        if Chord.Oracle.is_alive chord p (* srclint: allow oracle item-20 *) then Some p else None);
    (* Chord peers keep no statistics cache and run no gossip. *)
    stat_gossip = None;
  }
