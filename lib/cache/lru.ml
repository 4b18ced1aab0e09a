module Det = Unistore_util.Det

(* Entries sit on a doubly-linked list from least to most recently used;
   the table maps a key to its node. A read moves the node to the
   newest end and eviction takes the oldest, both O(1). *)
type 'a node = {
  key : string;
  value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  mutable capacity : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable oldest : 'a node option;
  mutable newest : 'a node option;
}

let create ~capacity =
  { capacity = max 0 capacity; tbl = Hashtbl.create 16; oldest = None; newest = None }

let capacity t = t.capacity
let length t = Hashtbl.length t.tbl

let clear t =
  Hashtbl.reset t.tbl;
  t.oldest <- None;
  t.newest <- None

let unlink t n =
  (match n.prev with None -> t.oldest <- n.next | Some p -> p.next <- n.next);
  (match n.next with None -> t.newest <- n.prev | Some x -> x.prev <- n.prev);
  n.prev <- None;
  n.next <- None

let push_newest t n =
  n.prev <- t.newest;
  (match t.newest with None -> t.oldest <- Some n | Some p -> p.next <- Some n);
  t.newest <- Some n

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
    unlink t n;
    push_newest t n;
    Some n.value
  | None -> None

let peek t key = Option.map (fun n -> n.value) (Hashtbl.find_opt t.tbl key)

let remove t key =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
    unlink t n;
    Hashtbl.remove t.tbl key
  | None -> ()

(* Every use moves a node to the newest end, so the oldest node is the
   least recently used entry. *)
let evict_one t =
  match t.oldest with
  | Some n ->
    unlink t n;
    Hashtbl.remove t.tbl n.key
  | None -> ()

let put t key v =
  if t.capacity > 0 then begin
    remove t key;
    while Hashtbl.length t.tbl >= t.capacity do
      evict_one t
    done;
    let n = { key; value = v; prev = None; next = None } in
    Hashtbl.replace t.tbl key n;
    push_newest t n
  end

let set_capacity t c =
  let c = max 0 c in
  t.capacity <- c;
  if c = 0 then clear t
  else
    while Hashtbl.length t.tbl > c do
      evict_one t
    done

let filter_inplace t f =
  let doomed =
    Hashtbl.fold (fun k n acc -> if f k n.value then acc else k :: acc) t.tbl []
    |> List.sort String.compare
  in
  List.iter (remove t) doomed;
  List.length doomed

let iter t f = Det.sorted_iter ~cmp:String.compare (fun k n -> f k n.value) t.tbl
