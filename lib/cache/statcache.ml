module Det = Unistore_util.Det

type summary = {
  attr : string;
  region_lo : string;
  peer : int;
  count : int;
  distinct : int;
  lo : string;
  hi : string;
  string_valued : bool;
  version : int;
  sampled_at : float;
  load : int;
}

let summary_bytes s =
  String.length s.attr + String.length s.region_lo + String.length s.lo + String.length s.hi + 33

type agg = {
  a_count : float;
  a_distinct : int;
  a_lo : string;
  a_hi : string;
  a_string : bool;
  a_version : int;
  a_regions : int;
}

type t = { mutable tbl : (string * string, summary) Hashtbl.t }

(* Most peers never hear a summary, so every cache starts on this one
   shared table and gets its own on the first [merge]. Nothing may ever
   write to [empty]: [merge] swaps it out first. *)
let empty : (string * string, summary) Hashtbl.t = Hashtbl.create 1

let create () = { tbl = empty }
let length t = Hashtbl.length t.tbl
let clear t = t.tbl <- empty

type merged = Kept | Resampled | News

let merge t s =
  let key = (s.attr, s.region_lo) in
  let old = Hashtbl.find_opt t.tbl key in
  let outcome =
    match old with
    | None -> News
    | Some old when s.version > old.version -> News
    | Some old when s.version = old.version && s.sampled_at > old.sampled_at -> Resampled
    | Some _ -> Kept
  in
  (match outcome with
  | Kept -> ()
  | Resampled | News ->
    (* First write: take a private table. *)
    if t.tbl == empty then t.tbl <- Hashtbl.create 32;
    (* Replicas of one region produce interchangeable summaries, but
       their load reports are not interchangeable: a cold replica must
       not erase the hot one's signal just by sampling later. Adopting
       a fresher summary keeps a halving memory of the displaced load,
       so the hot-spot signal survives replica races yet still decays
       within a few rounds once the region actually cools down. *)
    let s =
      match old with
      | Some old when old.load / 2 > s.load -> { s with load = old.load / 2 }
      | _ -> s
    in
    Hashtbl.replace t.tbl key s);
  outcome

(* Summaries travel inside [StatGossip] messages: a deterministic (attr,
   region) order keeps gossip payloads byte-stable across runs. *)
let key_compare (a1, r1) (a2, r2) =
  match String.compare a1 a2 with 0 -> String.compare r1 r2 | c -> c

let summaries t = List.map snd (Det.sorted_bindings ~cmp:key_compare t.tbl)

let aggregate t ~now ~half_life_ms =
  let accs : (string, agg ref) Hashtbl.t = Hashtbl.create 16 in
  (* Weights are floats, so the merge below is order-sensitive float
     addition: iterate in key order, not hash-bucket order. *)
  Det.sorted_iter ~cmp:key_compare
    (fun _ s ->
      let weight =
        if half_life_ms <= 0.0 then 1.0
        else 0.5 ** (Float.max 0.0 (now -. s.sampled_at) /. half_life_ms)
      in
      let contrib =
        {
          a_count = weight *. float_of_int s.count;
          a_distinct = s.distinct;
          a_lo = s.lo;
          a_hi = s.hi;
          a_string = s.string_valued;
          a_version = s.version;
          a_regions = 1;
        }
      in
      match Hashtbl.find_opt accs s.attr with
      | None -> Hashtbl.replace accs s.attr (ref contrib)
      | Some acc ->
        let a = !acc in
        acc :=
          {
            a_count = a.a_count +. contrib.a_count;
            a_distinct = a.a_distinct + contrib.a_distinct;
            a_lo = (if String.compare contrib.a_lo a.a_lo < 0 then contrib.a_lo else a.a_lo);
            a_hi = (if String.compare contrib.a_hi a.a_hi > 0 then contrib.a_hi else a.a_hi);
            a_string = a.a_string || contrib.a_string;
            a_version = a.a_version + contrib.a_version;
            a_regions = a.a_regions + 1;
          })
    t.tbl;
  Hashtbl.fold (fun a acc l -> (a, !acc) :: l) accs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Per-region served-request load, as gossiped: each summary carries
   the sampling peer's whole per-round request delta, so the region's
   load is the max (not the sum) over its attribute summaries. Sorted
   by region lo for deterministic consumers (the balancer). *)
let region_loads t =
  let regions : (string, int) Hashtbl.t = Hashtbl.create 16 in
  (* Commutative max per region: iteration order cannot matter. *)
  Hashtbl.iter (* srclint: allow unordered-iteration *)
    (fun (_, region_lo) s ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt regions region_lo) in
      Hashtbl.replace regions region_lo (max cur s.load))
    t.tbl;
  Det.sorted_bindings ~cmp:String.compare regions

let attr_version t a =
  (* Commutative integer sum: iteration order cannot matter. *)
  Hashtbl.fold (fun (attr, _) s acc -> if String.equal attr a then acc + s.version else acc) t.tbl 0 (* srclint: allow unordered-iteration *)

let total_version t =
  (* Commutative integer sum: iteration order cannot matter. *)
  Hashtbl.fold (fun _ s acc -> acc + s.version) t.tbl 0 (* srclint: allow unordered-iteration *)
