module SMap = Map.Make (String)
module SSet = Set.Make (String)
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
   [SMap.cardinal] is O(n). [by_peer] maps each peer to the regions of
   the entries that name it, so dropping a peer touches only those; the
   first [invalidate_peer] builds it, so a cache that never loses a
   peer pays nothing for it. *)
type t = {
  mutable capacity : int;
  mutable clock : int;
  mutable map : entry SMap.t;
  mutable lru : string UMap.t;
  mutable by_peer : SSet.t UMap.t option;
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
    by_peer = None;
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
  t.by_peer <- None;
  t.size <- 0

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let add_region lo peer =
  UMap.update peer (fun los -> Some (SSet.add lo (Option.value los ~default:SSet.empty)))

let index t lo peer = t.by_peer <- Option.map (add_region lo peer) t.by_peer

let unindex t lo peer =
  t.by_peer <-
    Option.map
      (UMap.update peer (fun los ->
           Option.bind los (fun los ->
               let los = SSet.remove lo los in
               if SSet.is_empty los then None else Some los)))
      t.by_peer

let evict_one t =
  match UMap.min_binding_opt t.lru with
  | None -> ()
  | Some (stamp, lo) ->
    List.iter (unindex t lo) (SMap.find lo t.map).peers;
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
        if List.length peers > spread_cap then begin
          List.iteri (fun i p -> if i >= spread_cap then unindex t lo p) peers;
          List.filteri (fun i _ -> i < spread_cap) peers
        end
        else peers
      in
      old.peers <- peers;
      index t lo peer;
      let stamp = tick t in
      t.lru <- UMap.add stamp lo (UMap.remove old.used t.lru);
      old.used <- stamp
    | old ->
      (match old with
      | Some old ->
        List.iter (unindex t lo) old.peers;
        t.lru <- UMap.remove old.used t.lru
      | None ->
        while t.size >= t.capacity do
          evict_one t
        done;
        t.size <- t.size + 1);
      let stamp = tick t in
      t.map <- SMap.add lo { hi; peers = [ peer ]; rr = 0; used = stamp } t.map;
      t.lru <- UMap.add stamp lo t.lru;
      index t lo peer
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
   hop, so under churn this runs often: it visits only the entries that
   name [peer], in region order, each of which names it once. Emptied
   entries leave the use-order index one by one instead of rebuilding
   it. *)
let invalidate_peer t peer =
  let by_peer =
    match t.by_peer with
    | Some m -> m
    | None ->
      SMap.fold (fun lo e m -> List.fold_left (fun m p -> add_region lo p m) m e.peers) t.map UMap.empty
  in
  t.by_peer <- Some (UMap.remove peer by_peer);
  match UMap.find_opt peer by_peer with
  | None -> 0
  | Some los ->
    SSet.iter
      (fun lo ->
        let e = SMap.find lo t.map in
        e.peers <- List.filter (fun p -> p <> peer) e.peers;
        if e.peers = [] then begin
          t.lru <- UMap.remove e.used t.lru;
          t.map <- SMap.remove lo t.map;
          t.size <- t.size - 1
        end)
      los;
    (* One removal per entry, which is at least the whole-entry drops. *)
    SSet.cardinal los

let invalidate_where t ~f =
  let removed = ref 0 and dropped = ref 0 in
  t.map <-
    SMap.filter_map
      (fun lo e ->
        let peers = List.filter (fun p -> not (f p)) e.peers in
        List.iter (fun p -> if f p then unindex t lo p) e.peers;
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

let set_capacity t c =
  let c = max 0 c in
  t.capacity <- c;
  if c = 0 then clear t
  else
    while t.size > c do
      evict_one t
    done
