module Store = Unistore_pgrid.Store
module Sim = Unistore_sim.Sim
module Net = Unistore_sim.Net
module Overlay = Unistore_pgrid.Overlay
module Chord = Unistore_chord.Chord
module Trie_index = Unistore_chord.Trie_index

type result = {
  items : Store.item list;
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
      (* coverage estimate in [0,1] (regions reached / regions
         addressed); 1.0 iff [complete] -- see {!Unistore_pgrid.Overlay} *)
  latency : float;
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
  range_topn :
    (origin:int -> lo:string -> hi:string -> n:int -> k:(result -> unit) -> unit) option;
  prefix : origin:int -> prefix:string -> k:(result -> unit) -> unit;
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
  bulk_insert : (origin:int -> items:Store.item list -> k:(result -> unit) -> unit) option;
  multi_lookup :
    (origin:int ->
    keys:string list ->
    k:((string * Store.item list) list * result -> unit) ->
    unit)
    option;
  send_task : (src:int -> dst:int -> bytes:int -> (int -> unit) -> unit) option;
  total_sent : unit -> int;
  expected_latency : float;
  depth : unit -> int;
  alive_peers : unit -> int list;
  responsible_peer : string -> int option;
  stat_gossip_round : (unit -> unit) option;
  statcache_of : (int -> Unistore_cache.Statcache.t) option;
}

let await t f =
  let cell = ref None in
  f (fun r -> cell := Some r);
  ignore (Sim.run_until t.sim (fun () -> !cell <> None));
  match !cell with
  | Some r -> r
  | None ->
    { items = []; hops = 0; peers_hit = 0; complete = false; completeness = 0.0; latency = 0.0 }

let insert_sync t ~origin ~key ~item_id ~payload =
  let cell = ref None in
  t.insert ~origin ~key ~item_id ~payload ~k:(fun ok -> cell := Some ok);
  ignore (Sim.run_until t.sim (fun () -> !cell <> None));
  Option.value ~default:false !cell

let delete_sync t ~origin ~key ~item_id =
  let cell = ref None in
  t.delete ~origin ~key ~item_id ~k:(fun ok -> cell := Some ok);
  ignore (Sim.run_until t.sim (fun () -> !cell <> None));
  Option.value ~default:false !cell

let lookup_sync t ~origin ~key = await t (fun k -> t.lookup ~origin ~key ~k)
let range_sync t ~origin ~lo ~hi = await t (fun k -> t.range ~origin ~lo ~hi ~k)
let prefix_sync t ~origin ~prefix = await t (fun k -> t.prefix ~origin ~prefix ~k)
let broadcast_sync t ~origin ~pred = await t (fun k -> t.broadcast ~origin ~pred ~k)

(* ------------------------------------------------------------------ *)

let of_overlay_result (r : Overlay.result) =
  {
    items = r.Overlay.items;
    hops = r.Overlay.hops;
    peers_hit = r.Overlay.peers_hit;
    complete = r.Overlay.complete;
    completeness = r.Overlay.completeness;
    latency = r.Overlay.latency;
  }

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
    lookup = (fun ~origin ~key ~k -> Overlay.lookup ov ~origin ~key ~k:(fun r -> k (of_overlay_result r)));
    range =
      (fun ~origin ~lo ~hi ~k ->
        Overlay.range ov ~origin ~lo ~hi ~k:(fun r -> k (of_overlay_result r)) ());
    range_topn =
      Some
        (fun ~origin ~lo ~hi ~n ~k ->
          Overlay.range ov ~origin ~strategy:Unistore_pgrid.Message.Sequential ~budget:n ~lo ~hi
            ~k:(fun r -> k (of_overlay_result r))
            ());
    prefix =
      (fun ~origin ~prefix ~k ->
        Overlay.prefix ov ~origin ~prefix ~k:(fun r -> k (of_overlay_result r)));
    broadcast =
      (fun ~origin ~pred ~k ->
        Overlay.broadcast ov ~origin ~pred ~k:(fun r -> k (of_overlay_result r)) ());
    scan_reduce =
      Some
        (fun ~origin ~lo ~hi ~pred ~reduce ~k ->
          Overlay.broadcast ov ~origin ~lo ~hi ~reduce ~pred
            ~k:(fun r -> k (of_overlay_result r))
            ());
    bulk_insert =
      Some
        (fun ~origin ~items ~k ->
          Overlay.bulk_insert ov ~origin ~items ~k:(fun r -> k (of_overlay_result r)));
    multi_lookup =
      Some
        (fun ~origin ~keys ~k ->
          Overlay.multi_lookup ov ~origin ~keys ~k:(fun (found, r) ->
              k (found, of_overlay_result r)));
    send_task = Some (fun ~src ~dst ~bytes run -> Overlay.send_task ov ~src ~dst ~bytes run);
    total_sent = (fun () -> Net.total_sent net);
    expected_latency = Unistore_sim.Latency.expected (Net.latency net);
    depth = (fun () -> Overlay.depth ov);
    alive_peers = (fun () -> Net.alive_peers net);
    responsible_peer =
      (fun key ->
        Overlay.responsible ov key
        |> List.filter_map (fun (nd : Unistore_pgrid.Node.t) ->
               if Net.is_alive net nd.Unistore_pgrid.Node.id then Some nd.Unistore_pgrid.Node.id
               else None)
        |> function
        | [] -> None
        | p :: _ -> Some p);
    stat_gossip_round =
      Some
        (fun () ->
          Unistore_pgrid.Gossip.stats_round ov ~sample:Stat_sample.of_node;
          Sim.run_all (Overlay.sim ov));
    statcache_of = Some (fun peer -> (Overlay.node ov peer).Unistore_pgrid.Node.stat_cache);
  }

(* ------------------------------------------------------------------ *)

let of_chord_result (r : Chord.result) =
  {
    items = r.Chord.items;
    hops = r.Chord.hops;
    peers_hit = r.Chord.peers_hit;
    complete = r.Chord.complete;
    completeness = (if r.Chord.complete then 1.0 else 0.0);
    latency = r.Chord.latency;
  }

(* Chord stores bucket-wrapped items; unwrap to the caller's view. *)
let decode_bucket_item (i : Store.item) =
  if String.length i.Store.key >= 2 && String.sub i.Store.key 0 2 = "B:" then
    match Trie_index.decode_payload i.Store.payload with
    | Some (key, payload) ->
      let item_id =
        match String.index_opt i.Store.item_id '#' with
        | Some j -> String.sub i.Store.item_id 0 j
        | None -> i.Store.item_id
      in
      Some { Store.key; item_id; payload; version = i.Store.version }
    | None -> None
  else None

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
        let hex = Trie_index.hex_of_key key in
        Chord.del chord ~origin ~key:("B:" ^ hex) ~item_id:(item_id ^ "#" ^ key)
          ~k:(fun r -> k r.Chord.complete));
    lookup =
      (fun ~origin ~key ~k ->
        let hex = Trie_index.hex_of_key key in
        Chord.get chord ~origin ~key:("B:" ^ hex) ~k:(fun r ->
            let items =
              List.filter_map decode_bucket_item r.Chord.items
              |> List.filter (fun (i : Store.item) -> String.equal i.Store.key key)
            in
            k { (of_chord_result r) with items }));
    range =
      (fun ~origin ~lo ~hi ~k ->
        Trie_index.range chord ~origin ~lo ~hi ~k:(fun r -> k (of_chord_result r)));
    range_topn = None;
    prefix =
      (fun ~origin ~prefix ~k ->
        let hi = prefix ^ String.make 64 '\xff' in
        Trie_index.range chord ~origin ~lo:prefix ~hi ~k:(fun r -> k (of_chord_result r)));
    broadcast =
      (fun ~origin ~pred ~k ->
        let wrapped raw =
          match decode_bucket_item raw with Some i -> pred i | None -> false
        in
        Chord.broadcast chord ~origin ~pred:wrapped ~k:(fun r ->
            let items = List.filter_map decode_bucket_item r.Chord.items in
            k { (of_chord_result r) with items }));
    scan_reduce = None;
    bulk_insert = None;
    multi_lookup = None;
    send_task = None;
    total_sent = (fun () -> Chord.total_sent chord);
    expected_latency = Chord.expected_latency chord;
    depth = (fun () -> log2n);
    alive_peers = (fun () -> Chord.alive_peers chord);
    responsible_peer =
      (fun key ->
        let hex = Trie_index.hex_of_key key in
        let p = Chord.responsible chord ("B:" ^ hex) in
        if Chord.is_alive chord p then Some p else None);
    stat_gossip_round = None;
    statcache_of = None;
  }
