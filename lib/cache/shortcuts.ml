module SMap = Map.Make (String)
module UMap = Map.Make (Int)

(* [peers] is most-recently-learned-first; a single-peer entry behaves
   exactly like the classic cache. In spread mode several peers
   accumulate per region (an owner's replicas and hot-path boosts) and
   [find] rotates through them round-robin via [rr], so an origin
   spreads its traffic instead of pinning the first responder. *)
type entry = { hi : string option; mutable peers : int list; mutable rr : int; mutable used : int }

(* [lru] mirrors [map], keyed by the entry's last-use stamp (stamps are
   unique, the clock never repeats), so the least-recently-used victim
   is the minimum binding — the previous fold over the whole map made
   every eviction O(capacity). [size] is tracked explicitly because
   [SMap.cardinal] is O(n). *)
type t = {
  mutable capacity : int;
  mutable clock : int;
  mutable map : entry SMap.t;
  mutable lru : string UMap.t;
  mutable size : int;
  mutable spread : bool;
}

(* Peers remembered per region in spread mode (replication plus a few
   boosts is all a region ever usefully has). *)
let spread_cap = 4

let create ~capacity =
  {
    capacity = max 0 capacity;
    clock = 0;
    map = SMap.empty;
    lru = UMap.empty;
    size = 0;
    spread = false;
  }

let capacity t = t.capacity
let length t = t.size
let set_spread t on = t.spread <- on
let spread t = t.spread

let clear t =
  t.map <- SMap.empty;
  t.lru <- UMap.empty;
  t.size <- 0

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let evict_one t =
  match UMap.min_binding_opt t.lru with
  | None -> ()
  | Some (stamp, lo) ->
    t.lru <- UMap.remove stamp t.lru;
    t.map <- SMap.remove lo t.map;
    t.size <- t.size - 1

let learn t ~lo ~hi ~peer =
  if t.capacity > 0 then begin
    match SMap.find_opt lo t.map with
    | Some old when t.spread && Option.equal String.equal old.hi hi ->
      (* Same region: accumulate the peer (move-to-front), refresh. *)
      let rest = List.filter (fun p -> p <> peer) old.peers in
      let peers = peer :: rest in
      let peers =
        if List.length peers > spread_cap then List.filteri (fun i _ -> i < spread_cap) peers
        else peers
      in
      old.peers <- peers;
      let stamp = tick t in
      t.lru <- UMap.add stamp lo (UMap.remove old.used t.lru);
      old.used <- stamp
    | old ->
      (match old with
      | Some old -> t.lru <- UMap.remove old.used t.lru
      | None ->
        while t.size >= t.capacity do
          evict_one t
        done;
        t.size <- t.size + 1);
      let stamp = tick t in
      t.map <- SMap.add lo { hi; peers = [ peer ]; rr = 0; used = stamp } t.map;
      t.lru <- UMap.add stamp lo t.lru
  end

let pick (e : entry) =
  match e.peers with
  | [] -> None
  | [ p ] -> Some p
  | peers ->
    let n = List.length peers in
    let k = e.rr mod n in
    e.rr <- e.rr + 1;
    List.nth_opt peers k

let find t ~key =
  match SMap.find_last_opt (fun lo -> String.compare lo key <= 0) t.map with
  | Some (lo, e) when (match e.hi with None -> true | Some h -> String.compare key h < 0) ->
    let stamp = tick t in
    t.lru <- UMap.add stamp lo (UMap.remove e.used t.lru);
    e.used <- stamp;
    pick e
  | _ -> None

let near t ~key =
  let peers = function Some (_, e) -> e.peers | None -> [] in
  peers (SMap.find_last_opt (fun lo -> String.compare lo key <= 0) t.map)
  @ peers (SMap.find_first_opt (fun lo -> String.compare lo key > 0) t.map)

(* Routing invalidates an unreachable near peer on the origin's first
   hop, so under churn this runs often: dropped entries leave the
   use-order index one by one instead of rebuilding it. *)
let drop_peers t ~f =
  let removed = ref 0 and dropped = ref 0 in
  t.map <-
    SMap.filter_map
      (fun _ e ->
        let peers = List.filter (fun p -> not (f p)) e.peers in
        removed := !removed + (List.length e.peers - List.length peers);
        if peers = [] then begin
          t.lru <- UMap.remove e.used t.lru;
          incr dropped;
          None
        end
        else begin
          e.peers <- peers;
          Some e
        end)
      t.map;
  t.size <- t.size - !dropped;
  (* Count whole-entry drops the way the classic cache did; partial
     trims still count as a removal each. *)
  max !dropped !removed

let invalidate_peer t peer = drop_peers t ~f:(fun p -> p = peer)
let invalidate_where t ~f = drop_peers t ~f

let set_capacity t c =
  let c = max 0 c in
  t.capacity <- c;
  if c = 0 then clear t
  else
    while t.size > c do
      evict_one t
    done
