(* Tests for the multi-level caching subsystem (unistore_cache) and its
   integration: routing shortcuts in the P-Grid overlay, the query
   origin's result cache, and the gossiped statistics the optimizer
   plans from. *)

module Rng = Unistore_util.Rng
module Sim = Unistore_sim.Sim
module Latency = Unistore_sim.Latency
module Lru = Unistore_cache.Lru
module Shortcuts = Unistore_cache.Shortcuts
module Result_cache = Unistore_cache.Result_cache
module Statcache = Unistore_cache.Statcache
module Metrics = Unistore_obs.Metrics
module Config = Unistore_pgrid.Config
module Node = Unistore_pgrid.Node
module Overlay = Unistore_pgrid.Overlay
module Build = Unistore_pgrid.Build
module Gossip = Unistore_pgrid.Gossip
module Stat_sample = Unistore_triple.Stat_sample
module Keys = Unistore_triple.Keys
module Publications = Unistore_workload.Publications
module Qstats = Unistore_qproc.Qstats
module Cost = Unistore_qproc.Cost
module Optimizer = Unistore_qproc.Optimizer
module Physical = Unistore_qproc.Physical
module Parser = Unistore_vql.Parser
module Tracelint = Unistore_analysis.Tracelint
module Value = Unistore.Value
module Triple = Unistore.Triple

open Test_support

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Lru *)

let test_lru_eviction_order () =
  let t = Lru.create ~capacity:3 in
  Lru.put t "a" 1;
  Lru.put t "b" 2;
  Lru.put t "c" 3;
  check Alcotest.(option int) "find refreshes" (Some 1) (Lru.find t "a");
  Lru.put t "d" 4;
  (* "b" was least recently used once "a" was re-read. *)
  check Alcotest.(option int) "b evicted" None (Lru.peek t "b");
  check Alcotest.(option int) "a kept" (Some 1) (Lru.peek t "a");
  check Alcotest.int "still bounded" 3 (Lru.length t)

let test_lru_peek_no_refresh () =
  let t = Lru.create ~capacity:3 in
  Lru.put t "a" 1;
  Lru.put t "b" 2;
  Lru.put t "c" 3;
  ignore (Lru.peek t "a");
  Lru.put t "d" 4;
  check Alcotest.(option int) "peek did not save a" None (Lru.peek t "a");
  check Alcotest.(option int) "b survived" (Some 2) (Lru.peek t "b")

let test_lru_capacity_zero_disabled () =
  let t = Lru.create ~capacity:0 in
  Lru.put t "a" 1;
  check Alcotest.int "nothing stored" 0 (Lru.length t);
  check Alcotest.(option int) "nothing found" None (Lru.find t "a")

let test_lru_filter_and_shrink () =
  let t = Lru.create ~capacity:8 in
  List.iter (fun i -> Lru.put t (string_of_int i) i) [ 1; 2; 3; 4 ];
  let removed = Lru.filter_inplace t (fun _ v -> v mod 2 = 0) in
  check Alcotest.int "odd entries removed" 2 removed;
  check Alcotest.int "even entries kept" 2 (Lru.length t);
  Lru.set_capacity t 1;
  check Alcotest.int "shrunk to new capacity" 1 (Lru.length t);
  Lru.set_capacity t 0;
  check Alcotest.int "capacity 0 empties" 0 (Lru.length t)

(* Eviction and traversal must be deterministic functions of the
   operation history, never of hash-bucket order: [iter] visits in key
   order, and the eviction victim is the least recently used entry. *)
let test_lru_deterministic_order () =
  let keys = [ "delta"; "alpha"; "echo"; "charlie"; "bravo" ] in
  let t = Lru.create ~capacity:8 in
  List.iter (fun k -> Lru.put t k 0) keys;
  let visited = ref [] in
  Lru.iter t (fun k _ -> visited := k :: !visited);
  check
    Alcotest.(list string)
    "iter in key order"
    (List.sort String.compare keys)
    (List.rev !visited);
  (* Same entries inserted in a different order, then evicted down to
     one: the survivor set depends only on recency, and with recency
     forced equal by re-insertion the traversal stays key-ordered. *)
  let u = Lru.create ~capacity:8 in
  List.iter (fun k -> Lru.put u k 0) (List.rev keys);
  let visited_u = ref [] in
  Lru.iter u (fun k _ -> visited_u := k :: !visited_u);
  check Alcotest.(list string) "iter order is insertion-independent" (List.rev !visited)
    (List.rev !visited_u)

(* The previous Lru, kept as a model: a table of (value, use stamp)
   whose victim is the (used, key) minimum found by a full fold. The
   recency-list Lru must evict exactly the same entries. *)
module Lru_model = struct
  type t = { mutable capacity : int; mutable clock : int; tbl : (string, int * int) Hashtbl.t }

  let create c = { capacity = max 0 c; clock = 0; tbl = Hashtbl.create 16 }

  let tick t =
    t.clock <- t.clock + 1;
    t.clock

  let evict_one t =
    let victim =
      Hashtbl.fold
        (fun k (_, used) acc ->
          match acc with
          | Some (k', u') when u' < used || (u' = used && String.compare k' k <= 0) -> acc
          | _ -> Some (k, used))
        t.tbl None
    in
    Option.iter (fun (k, _) -> Hashtbl.remove t.tbl k) victim

  let find t k =
    match Hashtbl.find_opt t.tbl k with
    | Some (v, _) ->
      Hashtbl.replace t.tbl k (v, tick t);
      Some v
    | None -> None

  let put t k v =
    if t.capacity > 0 then begin
      Hashtbl.remove t.tbl k;
      while Hashtbl.length t.tbl >= t.capacity do
        evict_one t
      done;
      Hashtbl.replace t.tbl k (v, tick t)
    end

  let set_capacity t c =
    t.capacity <- max 0 c;
    if t.capacity = 0 then Hashtbl.reset t.tbl
    else
      while Hashtbl.length t.tbl > t.capacity do
        evict_one t
      done

  let contents t =
    Hashtbl.fold (fun k (v, _) acc -> (k, v) :: acc) t.tbl [] |> List.sort compare
end

type lru_op = Put of string * int | Find of string | Remove of string | Resize of int

let pp_lru_op = function
  | Put (k, v) -> Printf.sprintf "put %s %d" k v
  | Find k -> "find " ^ k
  | Remove k -> "remove " ^ k
  | Resize c -> Printf.sprintf "set_capacity %d" c

let prop_lru_matches_model =
  let open QCheck2.Gen in
  let key = map (String.make 1) (char_range 'a' 'j') in
  let op =
    frequency
      [
        (5, map2 (fun k v -> Put (k, v)) key (0 -- 99));
        (4, map (fun k -> Find k) key);
        (1, map (fun k -> Remove k) key);
        (1, map (fun c -> Resize c) (0 -- 8));
      ]
  in
  let gen = pair (1 -- 6) (list_size (0 -- 200) op) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"lru evicts like the (used, key) fold model" ~count:300
       ~print:(fun (c, ops) -> Printf.sprintf "capacity %d: %s" c (String.concat "; " (List.map pp_lru_op ops)))
       gen
       (fun (capacity, ops) ->
         let t = Lru.create ~capacity and m = Lru_model.create capacity in
         List.for_all
           (fun op ->
             let same_find =
               match op with
               | Put (k, v) ->
                 Lru.put t k v;
                 Lru_model.put m k v;
                 true
               | Find k -> Lru.find t k = Lru_model.find m k
               | Remove k ->
                 Lru.remove t k;
                 Hashtbl.remove m.Lru_model.tbl k;
                 true
               | Resize c ->
                 Lru.set_capacity t c;
                 Lru_model.set_capacity m c;
                 true
             in
             let contents = ref [] in
             Lru.iter t (fun k v -> contents := (k, v) :: !contents);
             same_find && List.rev !contents = Lru_model.contents m)
           ops))

(* ------------------------------------------------------------------ *)
(* Shortcuts *)

let test_shortcuts_containment () =
  let t = Shortcuts.create ~capacity:4 in
  Shortcuts.learn t ~lo:"b" ~hi:(Some "d") ~peer:7;
  Shortcuts.learn t ~lo:"x" ~hi:None ~peer:9;
  check Alcotest.(option int) "inside region" (Some 7) (Shortcuts.find t ~key:"c");
  check Alcotest.(option int) "at lo (inclusive)" (Some 7) (Shortcuts.find t ~key:"b");
  check Alcotest.(option int) "at hi (exclusive)" None (Shortcuts.find t ~key:"d");
  check Alcotest.(option int) "below all regions" None (Shortcuts.find t ~key:"a");
  check Alcotest.(option int) "unbounded region" (Some 9) (Shortcuts.find t ~key:"zzz")

let test_shortcuts_invalidate_peer () =
  let t = Shortcuts.create ~capacity:4 in
  Shortcuts.learn t ~lo:"a" ~hi:(Some "g") ~peer:3;
  Shortcuts.learn t ~lo:"g" ~hi:(Some "m") ~peer:3;
  Shortcuts.learn t ~lo:"m" ~hi:(Some "p") ~peer:5;
  check Alcotest.int "both entries for 3 dropped" 2 (Shortcuts.invalidate_peer t 3);
  check Alcotest.(option int) "peer 3 forgotten" None (Shortcuts.find t ~key:"c");
  check Alcotest.(option int) "peer 5 untouched" (Some 5) (Shortcuts.find t ~key:"n")

(* [invalidate_peer] answers from its peer -> regions index what
   [invalidate_where] finds by visiting every entry: twin caches fed the
   same operations, one dropping a peer through each, return the same
   counts and keep the same entries, in plain and in spread mode. The
   other operations keep the index current: learning over an entry,
   spread mode's cap, LRU eviction, a capacity cut, [invalidate_where]
   and [clear]. *)
type sc_op =
  | Learn of int * int
  | Lookup of int
  | Drop of int
  | Where of int
  | Cap of int
  | Clear

let pp_sc_op = function
  | Learn (r, p) -> Printf.sprintf "learn r%d p%d" r p
  | Lookup r -> Printf.sprintf "find r%d" r
  | Drop p -> Printf.sprintf "invalidate_peer %d" p
  | Where m -> Printf.sprintf "invalidate_where (mod 3 = %d)" m
  | Cap c -> Printf.sprintf "set_capacity %d" c
  | Clear -> "clear"

let prop_shortcuts_invalidate_peer =
  let open QCheck2.Gen in
  let region = 0 -- 3 and peer = 0 -- 7 in
  let op =
    frequency
      [
        (8, map2 (fun r p -> Learn (r, p)) region peer);
        (2, map (fun r -> Lookup r) region);
        (2, map (fun p -> Drop p) peer);
        (1, map (fun m -> Where m) (0 -- 2));
        (1, map (fun c -> Cap c) (0 -- 6));
        (1, pure Clear);
      ]
  in
  let gen = triple bool (1 -- 6) (list_size (0 -- 120) op) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"invalidate peer = invalidate where" ~count:300
       ~print:(fun (spread, c, ops) ->
         Printf.sprintf "spread %b, capacity %d: %s" spread c
           (String.concat "; " (List.map pp_sc_op ops)))
       gen
       (fun (spread, capacity, ops) ->
         let lo r = String.make 1 (Char.chr (Char.code 'b' + (2 * r))) in
         let make () =
           let t = Shortcuts.create ~capacity in
           Shortcuts.set_spread t spread;
           t
         in
         let t = make () and m = make () in
         let both f = f t = f m in
         let state c =
           ( Shortcuts.length c,
             List.init 9 (fun r -> Shortcuts.near c ~key:(lo r ^ "x")) )
         in
         List.for_all
           (fun op ->
             let same =
               match op with
               | Learn (r, p) ->
                 both (fun c ->
                     Shortcuts.learn c ~lo:(lo r) ~hi:(Some (lo r ^ "z")) ~peer:p)
               | Lookup r -> both (fun c -> Shortcuts.find c ~key:(lo r))
               | Drop p ->
                 Shortcuts.invalidate_peer t p = Shortcuts.invalidate_where m ~f:(( = ) p)
               | Where k -> both (fun c -> Shortcuts.invalidate_where c ~f:(fun p -> p mod 3 = k))
               | Cap c -> both (fun s -> Shortcuts.set_capacity s c)
               | Clear -> both Shortcuts.clear
             in
             same && state t = state m)
           ops))

let test_shortcuts_capacity_zero_disabled () =
  let t = Shortcuts.create ~capacity:0 in
  Shortcuts.learn t ~lo:"a" ~hi:None ~peer:1;
  check Alcotest.int "disabled" 0 (Shortcuts.length t);
  check Alcotest.(option int) "no hit" None (Shortcuts.find t ~key:"b")

(* [near] names the peers of the regions either side of a key, the one
   at or below it first, and is a pure read: no recency refresh, no
   round-robin step. *)
let test_shortcuts_near () =
  let near t key = Shortcuts.near t ~key in
  let t = Shortcuts.create ~capacity:3 in
  check Alcotest.(list int) "empty cache" [] (near t "m");
  Shortcuts.learn t ~lo:"b" ~hi:(Some "d") ~peer:1;
  Shortcuts.learn t ~lo:"f" ~hi:(Some "h") ~peer:2;
  Shortcuts.learn t ~lo:"p" ~hi:(Some "t") ~peer:3;
  check Alcotest.(list int) "between regions" [ 2; 3 ] (near t "m");
  check Alcotest.(list int) "inside a region" [ 2; 3 ] (near t "g");
  check Alcotest.(list int) "at a region's lo" [ 2; 3 ] (near t "f");
  check Alcotest.(list int) "below every region" [ 1 ] (near t "a");
  check Alcotest.(list int) "above every region" [ 3 ] (near t "z");
  (* "b" is the least recently used region; probing next to it keeps it
     so, and the next region learned evicts it. *)
  check Alcotest.(list int) "next to the oldest" [ 1; 2 ] (near t "c");
  Shortcuts.learn t ~lo:"x" ~hi:None ~peer:4;
  check Alcotest.(option int) "no recency refresh" None (Shortcuts.find t ~key:"c");
  check Alcotest.(option int) "newer regions kept" (Some 2) (Shortcuts.find t ~key:"g");
  (* Spread mode: every peer of the region, and [find]'s rotation still
     starts at the first. *)
  let s = Shortcuts.create ~capacity:2 in
  Shortcuts.set_spread s true;
  Shortcuts.learn s ~lo:"b" ~hi:(Some "d") ~peer:4;
  Shortcuts.learn s ~lo:"b" ~hi:(Some "d") ~peer:5;
  check Alcotest.(list int) "spread peers" [ 5; 4 ] (near s "c");
  check Alcotest.(option int) "no round-robin step" (Some 5) (Shortcuts.find s ~key:"c");
  let off = Shortcuts.create ~capacity:0 in
  Shortcuts.learn off ~lo:"a" ~hi:None ~peer:1;
  check Alcotest.(list int) "capacity 0" [] (near off "b")

(* ------------------------------------------------------------------ *)
(* Result cache *)

let test_result_cache_version_and_ttl () =
  let m = Metrics.create () in
  let t = Result_cache.create ~name:"c" ~metrics:m ~capacity:8 ~ttl_ms:100.0 () in
  Result_cache.put t ~key:"k" ~version:1 ~now:0.0 "v";
  check Alcotest.(option string) "hit under same version" (Some "v")
    (Result_cache.find t ~key:"k" ~version:1 ~now:50.0);
  check Alcotest.int "hit counted" 1 (Metrics.counter m "c.hit");
  check Alcotest.(option string) "newer version invalidates" None
    (Result_cache.find t ~key:"k" ~version:2 ~now:50.0);
  check Alcotest.int "stale_version counted" 1 (Metrics.counter m "c.stale_version");
  Result_cache.put t ~key:"k" ~version:2 ~now:50.0 "v2";
  check Alcotest.(option string) "TTL expires entries" None
    (Result_cache.find t ~key:"k" ~version:2 ~now:200.0);
  check Alcotest.int "stale_ttl counted" 1 (Metrics.counter m "c.stale_ttl");
  check Alcotest.(option string) "absent key" None
    (Result_cache.find t ~key:"nope" ~version:1 ~now:0.0);
  check Alcotest.int "miss counted" 1 (Metrics.counter m "c.miss")

let test_result_cache_mem_is_pure () =
  let m = Metrics.create () in
  let t = Result_cache.create ~name:"c" ~metrics:m ~capacity:2 ~ttl_ms:100.0 () in
  Result_cache.put t ~key:"a" ~version:1 ~now:0.0 "va";
  Result_cache.put t ~key:"b" ~version:1 ~now:0.0 "vb";
  check Alcotest.bool "mem true on current entry" true
    (Result_cache.mem t ~key:"a" ~version:1 ~now:10.0);
  check Alcotest.bool "mem false on version change" false
    (Result_cache.mem t ~key:"a" ~version:2 ~now:10.0);
  check Alcotest.bool "mem false past TTL" false
    (Result_cache.mem t ~key:"a" ~version:1 ~now:500.0);
  List.iter
    (fun c -> check Alcotest.int ("no counter " ^ c) 0 (Metrics.counter m ("c." ^ c)))
    [ "hit"; "miss"; "stale_version"; "stale_ttl" ];
  (* mem must not refresh recency: "a" (older) is still the eviction
     victim even after being probed. *)
  ignore (Result_cache.mem t ~key:"a" ~version:1 ~now:10.0);
  Result_cache.put t ~key:"d" ~version:1 ~now:10.0 "vd";
  check Alcotest.bool "a evicted despite mem probes" false
    (Result_cache.mem t ~key:"a" ~version:1 ~now:10.0);
  check Alcotest.bool "b survived" true (Result_cache.mem t ~key:"b" ~version:1 ~now:10.0)

(* ------------------------------------------------------------------ *)
(* Qcache: the query processor's view of the result cache *)

let test_qcache_access_and_bind () =
  let versions = Hashtbl.create 4 in
  let version_of attr = Option.value ~default:0 (Hashtbl.find_opt versions attr) in
  let t =
    Unistore_qproc.Qcache.create ~capacity:16 ~ttl_ms:1000.0 ~now:(fun () -> 0.0) ~version_of ()
  in
  let module Qcache = Unistore_qproc.Qcache in
  let access = Cost.AAttrValue ("age", Value.I 30) in
  let triples = [ Triple.make ~oid:"a1" ~attr:"age" (Value.I 30) ] in
  check Alcotest.bool "cold" false (Qcache.find_access t access <> None);
  Qcache.store_access t access triples;
  (match Qcache.find_access t access with
  | Some [ tr ] -> check Alcotest.string "right answer" "a1" tr.Triple.oid
  | _ -> Alcotest.fail "expected the stored answer");
  check Alcotest.bool "probe agrees" true (Qcache.cached_access t access);
  (* A write to the access's attribute kills the entry... *)
  Hashtbl.replace versions (Some "age") 1;
  check Alcotest.bool "invalidated by attr version" false (Qcache.find_access t access <> None);
  (* ...and ABroadcast (opaque predicate) is never cached. *)
  Qcache.store_access t Cost.ABroadcast triples;
  check Alcotest.bool "broadcast not cached" false (Qcache.find_access t Cost.ABroadcast <> None);
  (* Bind-join probes: per-key, same versioning. *)
  Qcache.store_bind t ~attr:(Some "name") ~key:"k1" triples;
  check Alcotest.bool "bind hit" true (Qcache.find_bind t ~attr:(Some "name") ~key:"k1" <> None);
  check Alcotest.bool "bind miss on other key" false
    (Qcache.find_bind t ~attr:(Some "name") ~key:"k2" <> None);
  Hashtbl.replace versions (Some "name") 7;
  check Alcotest.bool "bind invalidated by attr version" false
    (Qcache.find_bind t ~attr:(Some "name") ~key:"k1" <> None)

let test_qcache_access_keys_do_not_collide () =
  (* pp_access renders S "1" and I 1 identically; access_key must not. *)
  let a = Cost.AAttrValue ("x", Value.S "1") in
  let b = Cost.AAttrValue ("x", Value.I 1) in
  Alcotest.(check bool) "distinct keys for distinct accesses" true
    (Cost.access_key a <> Cost.access_key b);
  Alcotest.(check bool) "stable for equal accesses" true
    (Cost.access_key a = Cost.access_key (Cost.AAttrValue ("x", Value.S "1")))

(* ------------------------------------------------------------------ *)
(* Statcache *)

let summary ?(attr = "age") ?(region_lo = "r0") ?(peer = 1) ?(count = 10) ?(distinct = 5)
    ?(version = 1) ?(sampled_at = 0.0) ?(load = 0) () =
  {
    Statcache.attr;
    region_lo;
    peer;
    count;
    distinct;
    lo = Value.encode (Value.I 0);
    hi = Value.encode (Value.I 100);
    string_valued = false;
    version;
    sampled_at;
    load;
  }

let merged =
  Alcotest.testable
    (fun ppf m ->
      Format.pp_print_string ppf
        (match m with Statcache.Kept -> "Kept" | Resampled -> "Resampled" | News -> "News"))
    ( = )

let fill t batch = List.iter (fun s -> ignore (Statcache.merge t s : Statcache.merged)) batch

let test_statcache_merge_newest_wins () =
  let t = Statcache.create () in
  check merged "first summary adopted" Statcache.News (Statcache.merge t (summary ()));
  check merged "same (attr,region,version,time) ignored" Statcache.Kept
    (Statcache.merge t (summary ~peer:2 ()));
  check Alcotest.int "replica deduped" 1 (Statcache.length t);
  check merged "higher version wins" Statcache.News
    (Statcache.merge t (summary ~version:2 ~count:12 ()));
  check merged "stale version rejected" Statcache.Kept
    (Statcache.merge t (summary ~version:1 ~count:99 ()));
  (* A later sample of the held version is adopted (its time and load
     are newer) but is no news: gossip does not relay it. *)
  check merged "re-sample adopted, not news" Statcache.Resampled
    (Statcache.merge t (summary ~version:2 ~count:12 ~sampled_at:5.0 ~load:3 ()));
  check (Alcotest.list Alcotest.int) "re-sample's load held" [ 3 ]
    (List.map snd (Statcache.region_loads t));
  check merged "other region adopted" Statcache.News
    (Statcache.merge t (summary ~region_lo:"r1" ()));
  check Alcotest.int "two regions held" 2 (Statcache.length t)

let test_statcache_versions_and_aggregate () =
  let t = Statcache.create () in
  ignore (Statcache.merge t (summary ~region_lo:"r0" ~version:2 ~count:10 ()));
  ignore (Statcache.merge t (summary ~region_lo:"r1" ~version:3 ~count:20 ()));
  ignore (Statcache.merge t (summary ~attr:"name" ~region_lo:"r0" ~version:5 ()));
  check Alcotest.int "attr_version sums regions" 5 (Statcache.attr_version t "age");
  check Alcotest.int "total_version sums all" 10 (Statcache.total_version t);
  (match Statcache.aggregate t ~now:0.0 ~half_life_ms:0.0 with
  | [ ("age", age); ("name", _) ] ->
    check (Alcotest.float 0.01) "counts sum across regions" 30.0 age.Statcache.a_count;
    check Alcotest.int "regions counted" 2 age.Statcache.a_regions
  | l -> Alcotest.failf "unexpected aggregate shape (%d attrs)" (List.length l));
  (* With decay, a summary one half-life old counts half. *)
  let t2 = Statcache.create () in
  ignore (Statcache.merge t2 (summary ~count:10 ~sampled_at:0.0 ()));
  match Statcache.aggregate t2 ~now:1000.0 ~half_life_ms:1000.0 with
  | [ ("age", age) ] ->
    check (Alcotest.float 0.01) "half-life halves the weight" 5.0 age.Statcache.a_count
  | _ -> Alcotest.fail "expected one aggregate"

(* A fresh cache starts on a table shared by every fresh cache; it must
   behave as an ordinary empty cache and never absorb a write. *)
let test_statcache_fresh_is_empty () =
  let t = Statcache.create () in
  check Alcotest.int "length" 0 (Statcache.length t);
  check Alcotest.int "no summaries" 0 (List.length (Statcache.summaries t));
  check Alcotest.int "attr_version" 0 (Statcache.attr_version t "age");
  check Alcotest.int "total_version" 0 (Statcache.total_version t);
  check Alcotest.int "no aggregates" 0 (List.length (Statcache.aggregate t ~now:0.0 ~half_life_ms:0.0));
  check Alcotest.int "no region loads" 0 (List.length (Statcache.region_loads t));
  Statcache.clear t;
  check Alcotest.int "clear keeps it empty" 0 (Statcache.length t)

let test_statcache_fresh_caches_independent () =
  let a = Statcache.create () and b = Statcache.create () in
  ignore (Statcache.merge a (summary ~version:3 ()));
  check Alcotest.int "merged cache holds it" 1 (Statcache.length a);
  check Alcotest.int "other fresh cache untouched" 0 (Statcache.length b);
  check Alcotest.int "other total_version" 0 (Statcache.total_version b);
  check Alcotest.int "a later fresh cache is empty" 0 (Statcache.length (Statcache.create ()));
  Statcache.clear a;
  check Alcotest.int "cleared" 0 (Statcache.length a);
  check Alcotest.int "still untouched" 0 (Statcache.length b)

let test_statcache_clear_then_merge () =
  let batch =
    List.init 40 (fun i ->
        summary ~attr:(Printf.sprintf "a%d" (i mod 7)) ~region_lo:(Printf.sprintf "r%02d" i)
          ~version:(i + 1) ~count:i ())
  in
  let used = Statcache.create () in
  fill used batch;
  ignore (Statcache.merge used (summary ~attr:"stale" ~version:99 ()));
  Statcache.clear used;
  check Alcotest.int "clear empties" 0 (Statcache.length used);
  fill used batch;
  let fresh = Statcache.create () in
  fill fresh batch;
  check Alcotest.bool "merge -> clear -> merge = fresh" true
    (Statcache.summaries used = Statcache.summaries fresh);
  check Alcotest.int "same total_version" (Statcache.total_version fresh)
    (Statcache.total_version used)

(* Two regions from two replicas' samples; [load] is the r0 sampler's. *)
let two_region_sample ~sampled_at ~load =
  [
    summary ~attr:"age" ~region_lo:"r0" ~version:3 ~count:10 ~sampled_at ~load ();
    summary ~attr:"name" ~region_lo:"r0" ~version:3 ~count:7 ~sampled_at ~load ();
    summary ~attr:"age" ~region_lo:"r1" ~peer:2 ~version:5 ~count:20 ~sampled_at ~load:(load / 4)
      ();
  ]

(* A cache that holds another's content from an older sample needs only
   that cache's digest: applying it must leave the same cache as merging
   the other's full summaries, hot-load memory included. *)
let test_digest_refreshes_like_full_push () =
  let source = Statcache.create () in
  fill source (two_region_sample ~sampled_at:2000.0 ~load:10);
  let by_digest = Statcache.create () and by_push = Statcache.create () in
  fill by_digest (two_region_sample ~sampled_at:1000.0 ~load:400);
  fill by_push (two_region_sample ~sampled_at:1000.0 ~load:400);
  let lacking = List.filter (Statcache.apply_digest by_digest) (Statcache.digest source) in
  check Alcotest.int "nothing to pull" 0 (List.length lacking);
  fill by_push (Statcache.summaries source);
  check Alcotest.bool "same summaries" true
    (Statcache.summaries by_digest = Statcache.summaries by_push);
  let aggregate t = Statcache.aggregate t ~now:5000.0 ~half_life_ms:120_000. in
  check Alcotest.bool "same decayed aggregates" true (aggregate by_digest = aggregate by_push);
  check
    Alcotest.(list (pair string int))
    "hot loads halve, not vanish" [ ("r0", 200); ("r1", 50) ]
    (Statcache.region_loads by_digest);
  check
    Alcotest.(list (pair string int))
    "same region loads" (Statcache.region_loads by_push) (Statcache.region_loads by_digest)

let test_digest_asks_for_missing () =
  let t = Statcache.create () in
  fill t (two_region_sample ~sampled_at:0.0 ~load:0);
  check
    Alcotest.(list (pair string int))
    "one entry per region, with its attribute count" [ ("r0", 2); ("r1", 1) ]
    (List.map (fun (e : Statcache.digest_entry) -> (e.d_region, e.d_attrs)) (Statcache.digest t));
  let entry ?(region = "r0") ?(version = 3) ?(attrs = 2) () =
    {
      Statcache.d_region = region;
      d_peer = 1;
      d_version = version;
      d_attrs = attrs;
      d_sampled_at = 0.0;
      d_load = 0;
    }
  in
  let lacks what e expected = check Alcotest.bool what expected (Statcache.apply_digest t e) in
  lacks "unknown region" (entry ~region:"r9" ()) true;
  lacks "missing attribute" (entry ~attrs:3 ()) true;
  lacks "lower version held" (entry ~version:4 ()) true;
  lacks "equal region" (entry ()) false;
  lacks "higher version held" (entry ~region:"r1" ~version:4 ~attrs:1 ()) false;
  lacks "more attributes held" (entry ~attrs:1 ()) false;
  check Alcotest.int "asking changes nothing" 3 (Statcache.length t)

(* ------------------------------------------------------------------ *)
(* Overlay integration: routing shortcuts *)

let test_overlay_shortcut_second_lookup_is_direct () =
  let rng = Rng.create 11 in
  let keys = List.sort_uniq compare (random_words rng 20) in
  let config = { Config.default with shortcut_capacity = 64 } in
  let ov = build_overlay ~n:32 ~config ~keys () in
  insert_all ov keys;
  let m = Metrics.create () in
  Overlay.set_metrics ov (Some m);
  (* First pass learns (region -> peer) from the Found replies (a few
     regions are already known from insert Acks)... *)
  List.iter
    (fun k ->
      let r = await (Overlay.sim ov) (fun ret -> Overlay.lookup ov ~origin:0 ~key:k ~k:ret) in
      Alcotest.(check bool) ("first lookup of " ^ k) true r.Overlay.complete)
    keys;
  Alcotest.(check bool) "regions learned" true (Metrics.counter m "cache.shortcut.learn" > 0);
  let hits_after_first_pass = Metrics.counter m "cache.shortcut.hit" in
  (* ...so the second pass goes to the responsible peer directly. *)
  List.iter
    (fun k ->
      let r = await (Overlay.sim ov) (fun ret -> Overlay.lookup ov ~origin:0 ~key:k ~k:ret) in
      Alcotest.(check bool) ("repeat lookup of " ^ k) true r.Overlay.complete;
      if r.Overlay.hops > 1 then
        Alcotest.failf "repeat lookup of %S took %d hops (expected <= 1)" k r.Overlay.hops)
    keys;
  (* Keys the origin is itself responsible for resolve locally without
     consulting the cache, hence >= half rather than all. *)
  Alcotest.(check bool) "most repeat lookups hit a shortcut" true
    (Metrics.counter m "cache.shortcut.hit" - hits_after_first_pass >= List.length keys / 2)

let test_overlay_shortcut_dead_peer_invalidated () =
  let rng = Rng.create 12 in
  let keys = List.sort_uniq compare (random_words rng 20) in
  let config = { Config.default with shortcut_capacity = 64; replication = 3 } in
  let ov = build_overlay ~n:32 ~config ~keys () in
  insert_all ov keys;
  let m = Metrics.create () in
  Overlay.set_metrics ov (Some m);
  (* Find a key whose learned shortcut points away from the origin. *)
  let origin = 0 in
  List.iter (fun k ->
      ignore (await (Overlay.sim ov) (fun ret -> Overlay.lookup ov ~origin ~key:k ~k:ret))) keys;
  let shortcuts = (Overlay.node ov origin).Node.shortcuts in
  let key, victim =
    match
      List.filter_map
        (fun k ->
          match Shortcuts.find shortcuts ~key:k with
          | Some p when p <> origin -> Some (k, p)
          | _ -> None)
        keys
    with
    | kv :: _ -> kv
    | [] -> Alcotest.fail "no shortcut learned away from origin"
  in
  Overlay.kill ov victim;
  let r = await (Overlay.sim ov) (fun k -> Overlay.lookup ov ~origin ~key ~k) in
  Alcotest.(check bool) "lookup survives dead shortcut target" true r.Overlay.complete;
  Alcotest.(check bool) "lookup still finds a replica" true (r.Overlay.items <> []);
  Alcotest.(check bool) "dead peer invalidated" true
    (Metrics.counter m "cache.shortcut.invalidate" > 0);
  (match Shortcuts.find shortcuts ~key with
  | Some p when p = victim -> Alcotest.fail "shortcut still points at the dead peer"
  | _ -> ());
  Overlay.revive ov victim

(* ------------------------------------------------------------------ *)
(* Gossip: anti-entropy and statistics spread under message loss *)

(* Under iid loss even the end-to-end retries can run out; the tests
   below are about gossip convergence, not insert reliability, so issue
   the operation until it is acknowledged. *)
let insert_all_lossy ov keys =
  List.iteri
    (fun i k ->
      let origin = i mod Overlay.node_count ov in
      let item_id = Printf.sprintf "id%d" i in
      let rec go attempts =
        let r = await (Overlay.sim ov) (fun ret ->
            Overlay.insert ov ~origin ~key:k ~item_id ~payload:k ~k:ret ()) in
        if not r.Overlay.complete then
          if attempts >= 10 then Alcotest.failf "insert of %S never acknowledged" k
          else go (attempts + 1)
      in
      go 1)
    keys

let test_anti_entropy_converges_under_loss () =
  let rng = Rng.create 13 in
  let keys = List.sort_uniq compare (random_words rng 30) in
  let config = { Config.default with replication = 4 } in
  let ov = build_overlay ~n:24 ~drop:0.2 ~config ~keys () in
  insert_all_lossy ov keys;
  let key = List.hd keys in
  let rec update attempts =
    let r =
      await (Overlay.sim ov) (fun k ->
          Overlay.update ov ~origin:1 ~key ~item_id:"id0" ~payload:"fresh" ~version:5 ~k ())
    in
    if not r.Overlay.complete then
      if attempts >= 10 then Alcotest.fail "update never acknowledged" else update (attempts + 1)
  in
  update 1;
  (* Rumor spreading under 20% loss can miss replicas; bounded
     anti-entropy rounds must reconcile the rest. *)
  let max_rounds = 20 in
  let rec converge round =
    if Gossip.staleness ov ~key ~item_id:"id0" ~version:5 = 0.0 then round
    else if round >= max_rounds then
      Alcotest.failf "replicas still stale after %d anti-entropy rounds" max_rounds
    else begin
      Gossip.anti_entropy_round ov;
      Sim.run_all (Overlay.sim ov);
      converge (round + 1)
    end
  in
  let rounds = converge 0 in
  Alcotest.(check bool) "bounded rounds" true (rounds <= max_rounds)

let test_stats_gossip_spreads_under_loss () =
  let rng = Rng.create 14 in
  let n = 24 in
  let keys =
    List.init 40 (fun i -> Keys.attr_value_key "age" (Value.I (20 + i)))
    @ random_words rng 10
  in
  let ov = build_overlay ~n ~drop:0.2 ~keys () in
  insert_all_lossy ov keys;
  for _ = 1 to 6 do
    Gossip.stats_round ov ~sample:Stat_sample.of_node;
    Sim.run_all (Overlay.sim ov)
  done;
  (* Every peer's statistics cache must have heard about "age" counts
     from (nearly) the whole key space, not only its own region. *)
  let total peer =
    match
      List.assoc_opt "age"
        (Statcache.aggregate (Overlay.node ov peer).Node.stat_cache ~now:0.0 ~half_life_ms:0.0)
    with
    | Some a -> a.Statcache.a_count
    | None -> 0.0
  in
  List.iter
    (fun peer ->
      let c = total peer in
      if c < 28.0 then
        Alcotest.failf "peer %d aggregates only %.0f of 40 age triples after 6 lossy rounds"
          peer c)
    [ 0; 5; 11; 17; 23 ]

(* ------------------------------------------------------------------ *)
(* Facade: gossiped statistics drive the optimizer *)

let make_store ?(peers = 48) ?(overlay = Unistore.Pgrid) ?(seed = 42)
    ?(cache = true) ?(authors = Publications.default_params.n_authors) () =
  let rng = Rng.create 7 in
  let ds =
    Publications.generate rng
      { Publications.default_params with typo_rate = 0.0; n_authors = authors }
  in
  let config = { Unistore.default_config with peers; overlay; seed; cache } in
  let store = Unistore.create ~sample_keys:(Publications.sample_keys ds) config in
  ignore (Unistore.load store ds.Publications.tuples);
  Unistore.set_stats_of_triples store ds.Publications.triples;
  Unistore.settle store;
  (store, ds)

let plan_queries =
  [
    "SELECT ?n,?age WHERE { (?a,'name',?n) (?a,'age',?age) FILTER ?age > 30 }";
    "SELECT ?n,?t WHERE { (?a,'name',?n) (?a,'has_published',?t) (?p,'title',?t) }";
    "SELECT ?t WHERE { (?p,'title',?t) (?p,'year',?y) FILTER ?y >= 2000 }";
  ]

(* The acceptance bound: plans built from gossiped statistics may not
   cost more than 2x the oracle-planned query when both are re-costed
   under the oracle's statistics (bulk accesses of every step — the
   part of the plan the statistics actually steer). *)
let test_gossiped_stats_plan_cost_bound () =
  let store, ds = make_store () in
  for _ = 1 to 4 do
    Unistore.gossip_stats_round store
  done;
  let gossiped =
    match Unistore.gossiped_stats store ~origin:3 with
    | Some st -> st
    | None -> Alcotest.fail "no gossiped statistics after 4 rounds"
  in
  Alcotest.(check bool) "gossiped stats see the dataset" true
    (gossiped.Qstats.total_triples > 0);
  let oracle = Qstats.of_triples ds.Publications.triples in
  let env = Cost.env_of_dht (Unistore.dht store) ~replication:Unistore.default_config.replication in
  let recost plan =
    List.fold_left
      (fun acc step ->
        acc +. Cost.objective (Cost.estimate_access env oracle step.Physical.access))
      0.0 plan.Physical.steps
  in
  List.iter
    (fun src ->
      let q = Parser.parse_exn src in
      let from_gossip = recost (Optimizer.plan env gossiped ~qgrams:true q) in
      let from_oracle = recost (Optimizer.plan env oracle ~qgrams:true q) in
      if from_gossip > 2.0 *. from_oracle +. 1e-9 then
        Alcotest.failf "gossip-planned cost %.2f exceeds 2x oracle-planned %.2f for %s"
          from_gossip from_oracle src)
    plan_queries

let test_facade_queries_run_on_gossiped_stats () =
  let store, _ = make_store ~peers:32 () in
  for _ = 1 to 4 do
    Unistore.gossip_stats_round store
  done;
  (* Results must match between a gossip-planned run and the oracle
     reference: statistics change plans, never answers. *)
  List.iter
    (fun src ->
      match Unistore.query store ~origin:5 src with
      | Error e -> Alcotest.failf "query failed on gossiped stats: %s" e
      | Ok r ->
        Alcotest.(check bool) ("complete: " ^ src) true r.Unistore.Report.complete)
    plan_queries

(* ------------------------------------------------------------------ *)
(* Facade: statistics gossip converges *)

let gossip_peers = 128
let gossip_store () = make_store ~peers:gossip_peers ~authors:100 ()

let stat_cache store origin =
  match Unistore.pgrid store with
  | Some ov -> (Overlay.node ov origin).Node.stat_cache
  | None -> Alcotest.fail "P-Grid deployment expected"

let stat_kinds = [ "stat-digest"; "stat-pull"; "stat-gossip" ]
let sent store kind = Metrics.counter (Unistore.metrics store) ("net.sent." ^ kind)

let stat_bytes store =
  List.fold_left
    (fun acc kind -> acc + Metrics.counter (Unistore.metrics store) ("net.bytes.sent." ^ kind))
    0 stat_kinds

(* A plain fanout-2 push reaches about 3^r peers in r rounds, 81 of 128
   after four; relaying news lets every origin hear every region. With
   decay off, the gossiped per-attribute counts are then exact. *)
let test_stats_converge_in_four_rounds () =
  let store, ds = gossip_store () in
  for _ = 1 to 4 do
    Unistore.gossip_stats_round store
  done;
  let oracle =
    Qstats.of_triples (List.sort_uniq Triple.compare ds.Publications.triples)
  in
  let expected = List.map (fun (a, (s : Qstats.attr_stats)) -> (a, s.Qstats.count)) oracle.Qstats.attrs in
  List.iter
    (fun origin ->
      let counts =
        Statcache.aggregate (stat_cache store origin) ~now:0.0 ~half_life_ms:0.0
        |> List.map (fun (a, (agg : Statcache.agg)) -> (a, int_of_float agg.Statcache.a_count))
      in
      check
        Alcotest.(list (pair string int))
        (Printf.sprintf "origin %d holds every attribute's exact count" origin)
        expected counts)
    [ 0; 31; 64; 97; gossip_peers - 1 ]

(* Once every peer holds every region's current summary, a round's
   re-samples move only the region stamps: it sends exactly its fanout
   digests per alive peer, and nobody pulls or relays. Those digests
   weigh far less than pushing whole caches would. A write raises its
   owner's version, and that region is pulled and relayed. (After four
   rounds a few of the 128 peers may still miss a summary; a round or
   two more completes them.) *)
let test_converged_round_relays_nothing () =
  let store, _ = gossip_store () in
  let held () =
    List.sort_uniq compare
      (List.init gossip_peers (fun p -> Statcache.length (stat_cache store p)))
  in
  let rec converge rounds =
    Unistore.gossip_stats_round store;
    match held () with
    | [ _ ] -> ()
    | _ when rounds < 8 -> converge (rounds + 1)
    | _ -> Alcotest.fail "peers still hold different summary sets after 8 rounds"
  in
  converge 1;
  let alive = List.length (Unistore.alive_peers store) in
  let fanout = Unistore_pgrid.Routing.gossip_fanout in
  let round () =
    let before = List.map (sent store) stat_kinds and bytes = stat_bytes store in
    Unistore.gossip_stats_round store;
    (List.map2 (fun kind n -> sent store kind - n) stat_kinds before, stat_bytes store - bytes)
  in
  let whole_cache =
    fanout * alive
    * List.fold_left
        (fun acc s -> acc + Statcache.summary_bytes s)
        0
        (Statcache.summaries (stat_cache store 0))
  in
  let counts, bytes = round () in
  check
    Alcotest.(list int)
    "converged round: fanout digests per alive peer, no pull, no relay"
    [ fanout * alive; 0; 0 ] counts;
  if 5 * bytes >= whole_cache then
    Alcotest.failf "a converged round sent %d B of statistics, %d B would push whole caches" bytes
      whole_cache;
  Alcotest.(check bool) "write lands" true
    (Unistore.insert_triple store (Triple.make ~oid:"gossiptest" ~attr:"age" (Value.I 99)));
  match round () with
  | [ _; pulls; relays ], _ when pulls + relays > 0 -> ()
  | _ -> Alcotest.fail "a round after a write pulled and relayed nothing"

(* Five rounds give every peer of a 256-peer deployment every summary:
   pulls move whole regions, and their news is relayed on. *)
let test_stats_complete_at_256 () =
  let store, _ = make_store ~peers:256 ~authors:200 () in
  for _ = 1 to 5 do
    Unistore.gossip_stats_round store
  done;
  let keys p =
    List.map (fun (s : Statcache.summary) -> (s.attr, s.region_lo)) (Statcache.summaries (stat_cache store p))
  in
  let all = List.sort_uniq compare (List.concat (List.init 256 keys)) in
  let complete = List.length (List.filter (fun p -> keys p = all) (List.init 256 Fun.id)) in
  check Alcotest.int "peers holding every summary" 256 complete

(* Digest and relay targets come from the overlay's seeded generator:
   two same-seed deployments push, pull and relay identically. *)
let test_stat_gossip_deterministic () =
  let gossip_trace () =
    let store, _ = gossip_store () in
    let trace = Unistore.start_trace store in
    for _ = 1 to 4 do
      Unistore.gossip_stats_round store
    done;
    Unistore.stop_trace store;
    List.filter_map
      (fun (e : Unistore_sim.Trace.event) ->
        if List.mem e.kind stat_kinds then Some (e.time, e.kind, e.src, e.dst, e.bytes) else None)
      (Unistore_sim.Trace.events trace)
  in
  let a = gossip_trace () in
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " traced") true (List.exists (fun (_, k, _, _, _) -> k = kind) a))
    stat_kinds;
  Alcotest.(check bool) "same seed, same stat-gossip trace" true (a = gossip_trace ())

(* ------------------------------------------------------------------ *)
(* Facade: result cache end-to-end *)

let test_result_cache_e2e_invalidation () =
  let store, _ = make_store ~peers:32 () in
  for _ = 1 to 4 do
    Unistore.gossip_stats_round store
  done;
  let m = Unistore.metrics store in
  let src = "SELECT ?a,?v WHERE { (?a,'age',?v) FILTER ?v > 90 }" in
  let run () =
    match Unistore.query store ~origin:3 src with
    | Ok r -> r
    | Error e -> Alcotest.failf "query failed: %s" e
  in
  Metrics.clear m;
  let r1 = run () in
  check Alcotest.int "cold run misses" 0 (Metrics.counter m "cache.result.hit");
  Alcotest.(check bool) "cold run populates" true (Metrics.counter m "cache.result.miss" > 0);
  let before = Unistore.messages_sent store in
  let r2 = run () in
  Alcotest.(check bool) "repeat run hits" true (Metrics.counter m "cache.result.hit" > 0);
  check Alcotest.int "repeat run is free" before (Unistore.messages_sent store);
  check Alcotest.int "same answer from cache" (List.length r1.Unistore.Report.rows)
    (List.length r2.Unistore.Report.rows);
  (* A write touching the attribute bumps its version: the cached entry
     must die and the new row must appear. *)
  Alcotest.(check bool) "write lands" true
    (Unistore.insert_triple store (Triple.make ~oid:"cachetest" ~attr:"age" (Value.I 99)));
  let r3 = run () in
  check Alcotest.int "fresh run sees the write"
    (List.length r1.Unistore.Report.rows + 1)
    (List.length r3.Unistore.Report.rows);
  Alcotest.(check bool) "staleness observed" true
    (Metrics.counter m "cache.result.stale_version" > 0
    || Metrics.counter m "cache.result.miss" > 1)

let test_result_caches_are_per_origin () =
  let store, _ = make_store ~peers:32 () in
  let m = Unistore.metrics store in
  let src = "SELECT ?n WHERE { (?a,'name',?n) }" in
  Metrics.clear m;
  ignore (Unistore.query store ~origin:3 src);
  let hits_before = Metrics.counter m "cache.result.hit" in
  ignore (Unistore.query store ~origin:9 src);
  check Alcotest.int "another origin cannot hit a foreign cache" hits_before
    (Metrics.counter m "cache.result.hit")

let test_no_cache_config_disables_everything () =
  let store, _ = make_store ~peers:32 ~cache:false () in
  let m = Unistore.metrics store in
  let src = "SELECT ?n WHERE { (?a,'name',?n) }" in
  Metrics.clear m;
  ignore (Unistore.query store ~origin:3 src);
  ignore (Unistore.query store ~origin:3 src);
  check Alcotest.int "no result hits" 0 (Metrics.counter m "cache.result.hit");
  check Alcotest.int "no shortcut hits" 0 (Metrics.counter m "cache.shortcut.hit")

(* The facade's one caching switch pins the sizes: on, each origin's
   result cache holds 256 entries that expire after 30 s of simulated
   time and every P-Grid peer keeps 128 shortcuts; off, there is no
   result cache and no shortcut slot. *)
let test_cache_switch_constants () =
  let module Qcache = Unistore_qproc.Qcache in
  let shortcut_capacities store =
    match Unistore.pgrid store with
    | Some ov ->
      List.sort_uniq compare
        (List.map (fun (n : Node.t) -> Shortcuts.capacity n.Node.shortcuts) (Overlay.nodes ov))
    | None -> Alcotest.fail "P-Grid deployment expected"
  in
  let store, _ = make_store ~peers:32 () in
  check Alcotest.(list int) "128 shortcuts per peer" [ 128 ] (shortcut_capacities store);
  let qc =
    match Unistore.result_cache store ~origin:2 with
    | Some c -> c
    | None -> Alcotest.fail "a default deployment has a result cache"
  in
  let access i = Cost.AOid (Printf.sprintf "o%d" i) in
  for i = 0 to 255 do
    Qcache.store_access qc (access i) []
  done;
  Alcotest.(check bool) "256 entries fit" true
    (List.for_all (fun i -> Qcache.cached_access qc (access i)) (List.init 256 Fun.id));
  Qcache.store_access qc (access 256) [];
  Alcotest.(check bool) "the 257th evicts the oldest" false (Qcache.cached_access qc (access 0));
  Alcotest.(check bool) "and only the oldest" true
    (List.for_all (fun i -> Qcache.cached_access qc (access i)) (List.init 256 (fun i -> i + 1)));
  let sim = Unistore.sim store in
  Qcache.store_access qc (access 300) [];
  Sim.run_for sim ~duration:29_999.0;
  Alcotest.(check bool) "alive just under 30 s" true (Qcache.cached_access qc (access 300));
  Sim.run_for sim ~duration:2.0;
  Alcotest.(check bool) "expired just over 30 s" false (Qcache.cached_access qc (access 300));
  let off, _ = make_store ~peers:32 ~cache:false () in
  Alcotest.(check bool) "no result cache when off" true
    (Option.is_none (Unistore.result_cache off ~origin:2));
  check Alcotest.(list int) "no shortcut slots when off" [ 0 ] (shortcut_capacities off)

(* ------------------------------------------------------------------ *)
(* Facade: the caches engage and pay for themselves *)

(* Two identical 32-peer deployments, caching off and on, run the same
   two phases: 150 skewed lookups from four clients (routing
   shortcuts), then three rounds of the planner queries from one origin
   (result caches). The cached arm must hit both caches and cut mean
   hops, lookup messages or query messages by at least 5%. *)
let test_caching_pays_off () =
  let module Dht = Unistore_triple.Dht in
  let module Histogram = Unistore_obs.Histogram in
  let arm ~cached =
    let store, ds = make_store ~peers:32 ~cache:cached () in
    let m = Unistore.metrics store in
    if cached then
      for _ = 1 to 4 do
        Unistore.gossip_stats_round store
      done;
    Metrics.clear m;
    (* Skewed popularity: index ~ n * u^3 concentrates most draws on
       the first few triples, like repeated point queries for hot
       items. *)
    let rng = Rng.create 4242 in
    let triples = Array.of_list ds.Publications.triples in
    let clients = [| 1; 9; 17; 25 |] in
    let dht = Unistore.dht store in
    for _ = 1 to 150 do
      let tr = triples.(int_of_float (float_of_int (Array.length triples) *. (Rng.float rng ** 3.0))) in
      let origin = clients.(Rng.int rng (Array.length clients)) in
      let key = Keys.attr_value_key tr.Triple.attr tr.Triple.value in
      ignore (await dht.Dht.sim (fun k -> dht.Dht.lookup ~origin ~key ~k))
    done;
    let hops = Histogram.mean (Metrics.histogram m "overlay.lookup.hops") in
    let lookup_msgs = Metrics.counter m "net.sent" in
    let shortcut_hits = Metrics.counter m "cache.shortcut.hit" in
    Metrics.clear m;
    for _ = 1 to 3 do
      List.iter
        (fun src ->
          match Unistore.query store ~origin:3 src with
          | Ok r -> Alcotest.(check bool) ("complete: " ^ src) true r.Unistore.Report.complete
          | Error e -> Alcotest.failf "query failed: %s" e)
        plan_queries
    done;
    let query_msgs = Metrics.counter m "net.sent" in
    (hops, float_of_int lookup_msgs, float_of_int query_msgs, shortcut_hits,
     Metrics.counter m "cache.result.hit")
  in
  let u_hops, u_lookup, u_query, _, _ = arm ~cached:false in
  let c_hops, c_lookup, c_query, shortcut_hits, result_hits = arm ~cached:true in
  Alcotest.(check bool) "shortcut hits" true (shortcut_hits > 0);
  Alcotest.(check bool) "result-cache hits" true (result_hits > 0);
  let cut uncached cached = uncached > 0.0 && (uncached -. cached) /. uncached >= 0.05 in
  if not (cut u_hops c_hops || cut u_lookup c_lookup || cut u_query c_query) then
    Alcotest.failf
      "caching cut nothing by 5%%: hops %.2f -> %.2f, lookup msgs %.0f -> %.0f, query msgs %.0f \
       -> %.0f"
      u_hops c_hops u_lookup c_lookup u_query c_query

(* ------------------------------------------------------------------ *)
(* Tracelint: monotone reads *)

let obs origin version = { Tracelint.origin; key = "k"; item_id = "i"; version }

let test_monotone_reads_flags_regression () =
  let diags = Tracelint.monotone_reads [ obs 1 2; obs 1 1 ] in
  (match diags with
  | [ d ] ->
    check Alcotest.string "code" "stale-read" d.Unistore.Diagnostic.code;
    Alcotest.(check bool) "is error" true (Unistore.Diagnostic.is_error d)
  | l -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length l));
  check Alcotest.int "monotone sequence clean" 0
    (List.length (Tracelint.monotone_reads [ obs 1 1; obs 1 2; obs 1 2 ]));
  check Alcotest.int "origins tracked independently" 0
    (List.length (Tracelint.monotone_reads [ obs 1 5; obs 2 1 ]));
  check Alcotest.int "regression after recovery still flagged" 1
    (List.length (Tracelint.monotone_reads [ obs 1 1; obs 1 3; obs 1 2 ]))

let test_facade_read_log_lints_clean () =
  let store, ds = make_store ~peers:32 () in
  (* Exact-match patterns compile to point lookups — the operation the
     read observer taps. Use a value that exists in the dataset. *)
  let age =
    match
      List.find_map
        (fun tr ->
          match tr with
          | { Triple.attr = "age"; value = Value.I v; _ } -> Some v
          | _ -> None)
        ds.Publications.triples
    with
    | Some v -> v
    | None -> Alcotest.fail "dataset has no age triple"
  in
  let src = Printf.sprintf "SELECT ?a WHERE { (?a,'age',%d) }" age in
  Unistore.record_reads store;
  ignore (Unistore.query store ~origin:4 src);
  ignore (Unistore.query store ~origin:7 src);
  Unistore.stop_recording_reads store;
  Alcotest.(check bool) "reads were recorded" true (Unistore.read_log store <> []);
  check Alcotest.int "healthy deployment has no stale reads" 0
    (List.length (Unistore.lint_reads store))

(* ------------------------------------------------------------------ *)
(* Memoised statistics sampling: the store generation and the memo it
   keys must never serve stale statistics. *)

module Store = Unistore_pgrid.Store
module Repair = Unistore_pgrid.Repair

(* Log segments go under the dune sandbox cwd and are removed after. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_log_dir name f =
  let dir = Filename.concat (Sys.getcwd ()) ("stat-memo-logs-" ^ name) in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let item ?(version = 0) key item_id = { Store.key; item_id; payload = key ^ "/" ^ item_id; version }

let generation_contract label backend =
  let s = Store.create ~backend ~name:"gen" () in
  check Alcotest.int (label ^ ": starts at 0") 0 (Store.generation s);
  let rises what f =
    let before = Store.generation s in
    ignore (f ());
    check Alcotest.int (Printf.sprintf "%s: %s adds one" label what) (before + 1) (Store.generation s)
  in
  let stays what f =
    let before = Store.generation s in
    ignore (f ());
    check Alcotest.int (Printf.sprintf "%s: %s leaves it" label what) before (Store.generation s)
  in
  List.iteri
    (fun i k -> rises "insert" (fun () -> Store.put s (item k (string_of_int i))))
    [ "A\000age\000i1"; "A\000age\000i2"; "A\000name\000sbo"; "O\000x"; "V\000y" ];
  rises "LWW update" (fun () -> Store.put s (item ~version:3 "A\000age\000i1" "0"));
  rises "stale put" (fun () -> Store.put s (item ~version:1 "A\000age\000i1" "0"));
  stays "find" (fun () -> Store.find s "A\000age\000i1");
  stays "range" (fun () -> Store.range s ~lo:"A" ~hi:"B");
  stays "with_prefix" (fun () -> Store.with_prefix s "A\000");
  stays "iter" (fun () -> Store.iter s ignore);
  stays "to_list" (fun () -> Store.to_list s);
  stays "digest" (fun () -> Store.digest s);
  stays "stats" (fun () -> Store.stats s);
  stays "size" (fun () -> Store.size s);
  let tomb = Store.tombstone ~key:"V\000y" ~item_id:"4" ~version:0 in
  rises "delete" (fun () -> Store.put s tomb);
  rises "delete of a deleted item" (fun () -> Store.put s tomb);
  rises "filter_partition" (fun () -> Store.filter_partition s (fun i -> i.Store.key < "O"));
  rises "crash_restart" (fun () -> Store.crash_restart s);
  rises "insert after restart" (fun () -> Store.put s (item "A\000age\000i9" "9"));
  rises "clear" (fun () -> Store.clear s)

let test_store_generation_contract () =
  generation_contract "hash" Store.Hash;
  with_log_dir "contract" (fun dir -> generation_contract "log" (Store.Log { dir }));
  (* A journal replay refills the store's map from the file: the
     generation must keep rising across it, torn tail or not. *)
  with_log_dir "torn" (fun dir ->
      let s = Store.create ~backend:(Store.Log { dir }) ~name:"torn" () in
      for i = 0 to 19 do
        ignore (Store.put s (item (Printf.sprintf "A\000age\000i%02d" i) (string_of_int i)))
      done;
      Store.sync s;
      let before = Store.generation s in
      let recovered = Store.crash_restart ~keep_frac:0.5 s in
      Alcotest.(check bool) "torn tail lost items" true (recovered > 0 && recovered < 20);
      check Alcotest.int "crash_restart counts once" (before + 1) (Store.generation s))

let show_summary (s : Statcache.summary) =
  Printf.sprintf "%s@%S p%d count=%d distinct=%d lo=%S hi=%S str=%b v=%d at=%g load=%d" s.attr
    s.region_lo s.peer s.count s.distinct s.lo s.hi s.string_valued s.version s.sampled_at s.load

(* Sample every node the memoised way, then again cold (memo dropped,
   load mark rewound), and demand field-by-field equality plus current
   stamps. A write that forgot to move the generation shows up as a
   memoised sample that disagrees with the cold one. *)
let check_samples ov ~now step =
  List.iter
    (fun (nd : Node.t) ->
      let mark = nd.Node.served_mark in
      let load = nd.Node.served - mark in
      let memo = Stat_sample.of_node ~now nd in
      nd.Node.stat_memo <- Node.no_stat_memo;
      nd.Node.served_mark <- mark;
      let cold = Stat_sample.of_node ~now nd in
      let label what = Printf.sprintf "%s: peer %d %s" step nd.Node.id what in
      check
        Alcotest.(list string)
        (label "memoised = cold") (List.map show_summary cold) (List.map show_summary memo);
      let av_items =
        List.length
          (List.filter
             (fun (i : Store.item) -> String.starts_with ~prefix:"A\000" i.Store.key)
             (Store.to_list nd.Node.store))
      in
      check Alcotest.int (label "counts cover every A#v item") av_items
        (List.fold_left (fun n (s : Statcache.summary) -> n + s.count) 0 memo);
      let region_lo, _ = Node.region nd in
      List.iter
        (fun (s : Statcache.summary) ->
          check Alcotest.string (label "region_lo current") region_lo s.region_lo;
          check Alcotest.int (label "version = write epoch") nd.Node.write_epoch s.version;
          check (Alcotest.float 0.0) (label "sampled_at = now") now s.sampled_at;
          check Alcotest.int (label "load = served since last sample") load s.load)
        memo)
    (Overlay.nodes ov)

let test_memo_never_stale () =
  let rng = Rng.create 15 in
  let config = { Config.default with replication = 3 } in
  let ages = List.init 60 (fun i -> Keys.attr_value_key "age" (Value.I (18 + (i mod 45)))) in
  let names = List.map (fun w -> Keys.attr_value_key "name" (Value.S w)) (random_words rng 30) in
  (* Non-A#v keys the sampler must skip. *)
  let others = List.map (fun w -> "O\000" ^ w) (random_words rng 20) in
  let keys = ages @ names @ others in
  let ov = build_overlay ~n:52 ~config ~keys () in
  let sim = Overlay.sim ov in
  insert_all ov keys;
  Sim.run_all sim;
  let now = ref 0.0 in
  let step name =
    (* Lookups between samples move the served counters, so the load
       stamp is exercised too. *)
    for _ = 1 to 10 do
      let k = List.nth keys (Rng.int rng (List.length keys)) in
      ignore (await (Overlay.sim ov) (fun ret ->
          Overlay.lookup ov ~origin:(Rng.int rng 52) ~key:k ~k:ret))
    done;
    now := !now +. 1000.0;
    check_samples ov ~now:!now name
  in
  step "after load";
  step "unchanged";
  let fresh = List.init 8 (fun i -> Keys.attr_value_key "age" (Value.I (100 + i))) in
  List.iteri
    (fun i k ->
      let r = await (Overlay.sim ov) (fun ret ->
          Overlay.insert ov ~origin:(i mod 52) ~key:k ~item_id:(Printf.sprintf "new%d" i) ~payload:k ~k:ret ()) in
      if not r.Overlay.complete then Alcotest.failf "insert of %S incomplete" k)
    fresh;
  step "insert";
  let upd = List.nth ages 3 in
  let r = await (Overlay.sim ov) (fun k ->
      Overlay.update ov ~origin:5 ~key:upd ~item_id:"id3" ~payload:"fresh" ~version:7 ~k ()) in
  Alcotest.(check bool) "update acknowledged" true r.Overlay.complete;
  step "LWW update";
  List.iteri
    (fun i k -> ignore (await (Overlay.sim ov) (fun ret ->
        Overlay.delete ov ~origin:(i + 1) ~key:k ~item_id:(Printf.sprintf "id%d" (60 + i)) ~k:ret)))
    (List.filteri (fun i _ -> i < 5) names);
  step "delete";
  (* Repair rejoin: deplete a 3-member group; a spare peer migrates into
     it and drops its old region's items (filter_partition) before the
     state transfer lands. Sample in between, then after. *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (n : Node.t) ->
      Hashtbl.replace groups n.Node.path
        (n.Node.id :: Option.value (Hashtbl.find_opt groups n.Node.path) ~default:[]))
    (Overlay.nodes ov);
  let victims =
    Hashtbl.fold
      (fun _ ids acc ->
        match acc with
        | [] when List.length ids = 3 -> (
          match List.sort compare ids with a :: b :: _ -> [ a; b ] | _ -> [])
        | acc -> acc)
      groups []
  in
  Alcotest.(check bool) "found a group to deplete" true (victims <> []);
  List.iter (Overlay.kill ov) victims;
  let report = Repair.round ov in
  Alcotest.(check bool) "a spare peer migrated" true (report.Repair.moved > 0);
  check_samples ov ~now:!now "repair rejoin (partitioned)";
  Sim.run_all sim;
  step "repair rejoin (state transfer)";
  List.iter (Overlay.revive ov) victims;
  let victim =
    List.find
      (fun (nd : Node.t) -> Overlay.Oracle.alive ov nd.Node.id && Store.with_prefix nd.Node.store "A\000" <> [])
      (Overlay.nodes ov)
  in
  ignore (Overlay.crash ov victim.Node.id);
  step "crash";
  Overlay.revive ov victim.Node.id;
  for _ = 1 to 4 do
    Gossip.anti_entropy_round ov;
    Sim.run_all sim
  done;
  step "restart + anti-entropy";
  let cleared =
    List.find
      (fun (nd : Node.t) -> Store.with_prefix nd.Node.store "A\000" <> [])
      (List.rev (Overlay.nodes ov))
  in
  Store.clear cleared.Node.store;
  step "clear"

(* Two back-to-back sampling passes over a fresh 128-peer publications
   deployment: the second finds every store unchanged, so it restamps
   the memo instead of re-scanning. Minor words, not time: the count is
   deterministic. *)
let test_sampling_allocation_guard () =
  let store, _ = make_store ~peers:128 () in
  let ov = Option.get (Unistore.pgrid store) in
  let pass () =
    let before = Gc.minor_words () in
    List.iter (fun nd -> ignore (Stat_sample.of_node ~now:0.0 nd)) (Overlay.nodes ov);
    Gc.minor_words () -. before
  in
  let first = pass () in
  let second = pass () in
  if second > 0.05 *. first then
    Alcotest.failf "second sampling pass allocated %.0f minor words, %.1f%% of the first's %.0f"
      second (100.0 *. second /. first) first

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "unistore_cache"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "peek does not refresh" `Quick test_lru_peek_no_refresh;
          Alcotest.test_case "capacity 0 disables" `Quick test_lru_capacity_zero_disabled;
          Alcotest.test_case "filter and shrink" `Quick test_lru_filter_and_shrink;
          Alcotest.test_case "deterministic traversal" `Quick test_lru_deterministic_order;
          prop_lru_matches_model;
        ] );
      ( "shortcuts",
        [
          Alcotest.test_case "region containment" `Quick test_shortcuts_containment;
          Alcotest.test_case "invalidate peer" `Quick test_shortcuts_invalidate_peer;
          Alcotest.test_case "capacity 0 disables" `Quick test_shortcuts_capacity_zero_disabled;
          Alcotest.test_case "near regions" `Quick test_shortcuts_near;
          prop_shortcuts_invalidate_peer;
        ] );
      ( "result_cache",
        [
          Alcotest.test_case "version and TTL invalidation" `Quick
            test_result_cache_version_and_ttl;
          Alcotest.test_case "mem is side-effect free" `Quick test_result_cache_mem_is_pure;
        ] );
      ( "qcache",
        [
          Alcotest.test_case "access + bind caching with versioning" `Quick
            test_qcache_access_and_bind;
          Alcotest.test_case "access keys do not collide" `Quick
            test_qcache_access_keys_do_not_collide;
        ] );
      ( "statcache",
        [
          Alcotest.test_case "merge newest-wins, replicas dedupe" `Quick
            test_statcache_merge_newest_wins;
          Alcotest.test_case "versions and decayed aggregation" `Quick
            test_statcache_versions_and_aggregate;
          Alcotest.test_case "fresh cache is empty" `Quick test_statcache_fresh_is_empty;
          Alcotest.test_case "fresh caches share nothing" `Quick
            test_statcache_fresh_caches_independent;
          Alcotest.test_case "merge/clear/merge = fresh" `Quick test_statcache_clear_then_merge;
          Alcotest.test_case "a digest refreshes like a full push" `Quick
            test_digest_refreshes_like_full_push;
          Alcotest.test_case "a digest asks for what is missing" `Quick
            test_digest_asks_for_missing;
        ] );
      ( "overlay-shortcuts",
        [
          Alcotest.test_case "repeat lookups go direct" `Quick
            test_overlay_shortcut_second_lookup_is_direct;
          Alcotest.test_case "dead peers are invalidated" `Quick
            test_overlay_shortcut_dead_peer_invalidated;
        ] );
      ( "gossip",
        [
          Alcotest.test_case "anti-entropy converges under 20% loss" `Quick
            test_anti_entropy_converges_under_loss;
          Alcotest.test_case "statistics spread under 20% loss" `Quick
            test_stats_gossip_spreads_under_loss;
                  Alcotest.test_case "4 rounds give origins exact counts" `Quick
            test_stats_converge_in_four_rounds;
          Alcotest.test_case "converged rounds relay nothing" `Quick
            test_converged_round_relays_nothing;
          Alcotest.test_case "same seed, same stat-gossip trace" `Quick
            test_stat_gossip_deterministic;
          Alcotest.test_case "5 rounds complete 256 peers" `Quick test_stats_complete_at_256;
        ] );
      ( "gossiped-stats",
        [
          Alcotest.test_case "plan cost within 2x of oracle" `Quick
            test_gossiped_stats_plan_cost_bound;
          Alcotest.test_case "queries run on gossiped stats" `Quick
            test_facade_queries_run_on_gossiped_stats;
        ] );
      ( "result-cache-e2e",
        [
          Alcotest.test_case "hit, write, invalidate" `Quick test_result_cache_e2e_invalidation;
          Alcotest.test_case "caches are per-origin" `Quick test_result_caches_are_per_origin;
          Alcotest.test_case "no_cache disables everything" `Quick
            test_no_cache_config_disables_everything;
          Alcotest.test_case "cache switch sizes" `Quick test_cache_switch_constants;
          Alcotest.test_case "caching pays off" `Quick test_caching_pays_off;
        ] );
      ( "memoised-sampling",
        [
          Alcotest.test_case "store generation contract" `Quick test_store_generation_contract;
          Alcotest.test_case "memo never serves stale statistics" `Quick test_memo_never_stale;
          Alcotest.test_case "second pass allocates <= 5% of the first" `Quick
            test_sampling_allocation_guard;
        ] );
      ( "tracelint",
        [
          Alcotest.test_case "monotone reads" `Quick test_monotone_reads_flags_regression;
          Alcotest.test_case "facade read log lints clean" `Quick
            test_facade_read_log_lints_clean;
        ] );
    ]
