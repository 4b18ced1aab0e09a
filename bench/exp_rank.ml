(* E-rank: similarity & ranking at scale — the P-Grid vs Chord
   head-to-head at three network sizes.

   Each cell is one deployment at the default configuration: every
   ranking/similarity fast path runs wherever the overlay supports it.
   Four measured operators:

   - top-N: `ORDER BY ?v ASC LIMIT n` over a dense numeric attribute.
     On P-Grid the planner picks the budgeted sequential traversal
     ([ATopN], {!Dht.t.range_topn}) that early-terminates after the
     first n items plus a replication-deep confirmation; Chord's trie
     has no ordered traversal, so the whole A#v region travels to the
     origin and is sorted there.
   - skyline: the canonical two-goal query. On P-Grid the leaf-local
     partial skyline runs where the tuples live — all triples of one
     logical tuple share their OID key, so dominance against co-located
     candidates is globally sound — and dominated rows never cross the
     network; Chord cannot ship closures, so every x and y triple
     travels to the origin first.
   - similarity selection: edit-distance-1 lookup via the q-gram
     index, fetching only a count-filter-covering rarest-first prefix
     of the pattern's grams (recall-complete by the prefix-filter
     bound) — one MultiLookup batch on P-Grid, one routed lookup per
     gram on Chord.
   - substring selection: positional pruning to at most 3 grams
     (any subset of the pattern's grams is recall-complete here).

   Both overlays must return identical rows and full recall against a
   locally computed oracle — asserted, not sampled. Writes
   BENCH_rank.json; test_core's "P-Grid ships fewer ranking bytes than
   Chord" holds the small-size claims as a tier-1 test. *)

module Metrics = Unistore_obs.Metrics
module Json = Unistore_obs.Json
module Binding = Unistore_qproc.Binding
module Keys = Unistore_triple.Keys
module Tstore = Unistore_triple.Tstore
module Strdist = Unistore_util.Strdist
module Value = Unistore.Value
module Triple = Unistore.Triple

let out_file = "BENCH_rank.json"

(* ------------------------------------------------------------------ *)
(* Synthetic dataset: one logical tuple per OID with a unique numeric
   score (top-N), two independent skyline dimensions, and a name drawn
   Zipf-style from a small vocabulary with deterministic single-edit
   mutations (so edit-distance-1 queries have non-trivial answers).   *)

type row = { oid : string; score : int; x : int; y : int; name : string }

let vocab =
  [|
    "saffron"; "marzipan"; "gossamer"; "lanterns"; "obsidian"; "meridian";
    "cascade"; "thimble"; "juniper"; "paradox"; "velveteen"; "embering";
    "quartzite"; "willowing"; "harborage"; "nimbus"; "coppered"; "sableword";
    "tundras"; "mosaics"; "cinders"; "fathoms"; "grottoes"; "zephyrs";
  |]

(* Zipf weights 1/(k+1) over the vocabulary, picked with a fixed
   multiplicative hash of the row index — skewed and deterministic. *)
let zipf_word r =
  let n = Array.length vocab in
  let total = ref 0.0 in
  for k = 0 to n - 1 do
    total := !total +. (1.0 /. float_of_int (k + 1))
  done;
  let u =
    float_of_int (((r * 48271) + 11) mod 9973) /. 9973.0 *. !total
  in
  let rec pick k acc =
    if k >= n - 1 then vocab.(n - 1)
    else
      let acc = acc +. (1.0 /. float_of_int (k + 1)) in
      if u < acc then vocab.(k) else pick (k + 1) acc
  in
  pick 0 0.0

(* Every third row mutates its word by one substitution, every other
   third by one deletion — edit distance exactly 1 from the vocabulary
   word, so d=1 similarity queries must pull them in. *)
let mutate r s =
  match r mod 3 with
  | 1 ->
    let b = Bytes.of_string s in
    let p = r / 3 mod String.length s in
    let c = Bytes.get b p in
    Bytes.set b p (if c = 'z' then 'a' else Char.chr (Char.code c + 1));
    Bytes.to_string b
  | 2 -> String.sub s 0 (String.length s - 1)
  | _ -> s

let make_rows n =
  List.init n (fun r ->
      {
        oid = Printf.sprintf "o%05d" r;
        score = r * 7919 mod 10007;
        x = ((r * 104729) + 13) mod 997;
        y = ((r * 15485863) + 7) mod 983;
        name = mutate r (zipf_word r);
      })

let tuples_of data =
  List.map
    (fun rw ->
      ( rw.oid,
        [
          ("score", Value.I rw.score);
          ("x", Value.I rw.x);
          ("y", Value.I rw.y);
          ("name", Value.S rw.name);
        ] ))
    data

let triples_of data =
  List.concat_map
    (fun rw ->
      [
        { Triple.oid = rw.oid; attr = "score"; value = Value.I rw.score };
        { Triple.oid = rw.oid; attr = "x"; value = Value.I rw.x };
        { Triple.oid = rw.oid; attr = "y"; value = Value.I rw.y };
        { Triple.oid = rw.oid; attr = "name"; value = Value.S rw.name };
      ])
    data

let sample_keys_of triples =
  List.concat_map
    (fun (tr : Triple.t) ->
      let base =
        [
          Keys.oid_key tr.Triple.oid;
          Keys.attr_value_key tr.Triple.attr tr.Triple.value;
          Keys.value_key tr.Triple.value;
        ]
      in
      match tr.Triple.value with
      | Value.S s ->
        base @ List.map Keys.qgram_key (Strdist.distinct_qgrams ~q:Keys.q s)
      | _ -> base)
    triples

(* ------------------------------------------------------------------ *)
(* Local oracles: exact answers computed outside the network.         *)

let topn_limit = 10

let topn_oracle data =
  List.sort (fun a b -> compare a.score b.score) data
  |> List.filteri (fun i _ -> i < topn_limit)
  |> List.map (fun rw -> rw.oid)

(* x MIN, y MAX; strict dominance. *)
let skyline_oracle data =
  List.filter
    (fun a ->
      not
        (List.exists
           (fun b ->
             b.x <= a.x && b.y >= a.y && (b.x < a.x || b.y > a.y))
           data))
    data
  |> List.map (fun rw -> rw.oid)

let sim_oracle data pattern =
  List.filter (fun rw -> Strdist.within_distance pattern rw.name 1) data
  |> List.map (fun rw -> rw.oid)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let substring_oracle data pattern =
  List.filter (fun rw -> contains_sub ~sub:pattern rw.name) data
  |> List.map (fun rw -> rw.oid)

let recall ~got ~want =
  match List.sort_uniq compare want with
  | [] -> 1.0
  | want ->
    let got = List.sort_uniq compare got in
    let hit = List.length (List.filter (fun w -> List.mem w got) want) in
    float_of_int hit /. float_of_int (List.length want)

(* ------------------------------------------------------------------ *)

type op = {
  messages : int;
  bytes : int;
  latency : float;
  rows : string list;  (** sorted identity fingerprints, comparable across overlays *)
  recall : float;
}

type cell = {
  topn : op;
  skyline : op;
  sim : op;
  substring : op;
  skyline_bytes_saved : int;  (** dropped at the leaves (P-Grid only) *)
}

let topn_query = "SELECT ?s,?v WHERE { (?s,'score',?v) } ORDER BY ?v ASC LIMIT 10"
let topn_origins = [ 3; 17; 29 ]

let skyline_query =
  "SELECT ?s,?x,?y WHERE { (?s,'x',?x) (?s,'y',?y) } ORDER BY SKYLINE OF ?x MIN, ?y MAX"

let skyline_origins = [ 5; 23 ]

(* Patterns long enough that gram pruning has something to prune:
   'saffron' carries 9 padded grams, the count-filter prefix for d=1
   needs d*q+1 = 4 occurrences. *)
let sim_specs = [ ("saffron", 3); ("marzipan", 11); ("gossamer", 29) ]

(* Substrings with >= 4 unpadded grams, pruned to 3. *)
let substring_specs = [ ("saffro", 7); ("arzipan", 13); ("ossamer", 19) ]

let row_set (r : Unistore.Report.report) =
  List.sort compare (List.map Binding.fingerprint r.Unistore.Report.rows)

let oids_of_report (r : Unistore.Report.report) var =
  List.filter_map
    (fun b ->
      match Binding.find b var with Some (Value.S s) -> Some s | _ -> None)
    r.Unistore.Report.rows

let run_cell ~overlay ~peers ~nrows =
  let data = make_rows nrows in
  let triples = triples_of data in
  let store =
    Unistore.create
      ~sample_keys:(sample_keys_of triples)
      {
        Unistore.default_config with
        peers;
        seed = 42;
        overlay;
        qgram_index = true;
        (* caching off: a result-cache hit would zero out repeated
           queries and measure nothing. *)
        cache = Unistore.no_cache;
      }
  in
  let stored = Unistore.load store (tuples_of data) in
  if stored = 0 then failwith "rank bench: nothing stored";
  Unistore.settle store;
  Unistore.set_stats_of_triples store triples;
  let m = Unistore.metrics store in
  let ts = Unistore.tstore store in
  let query_phase vql origins oracle var =
    Metrics.clear m;
    let t0 = Unistore.now store in
    let reports =
      List.map
        (fun origin ->
          let r = Common.run_query_exn store ~origin vql in
          if not r.Unistore.Report.complete then failwith "rank bench: incomplete query";
          r)
        origins
    in
    let latency = Unistore.now store -. t0 in
    {
      messages = Metrics.counter m "net.sent";
      bytes = Metrics.counter m "net.bytes.sent";
      latency;
      rows = List.sort compare (List.concat_map row_set reports);
      recall = recall ~got:(oids_of_report (List.hd reports) var) ~want:oracle;
    }
  in
  let tstore_phase specs run oracle_of =
    Metrics.clear m;
    let t0 = Unistore.now store in
    let per_pattern =
      List.map
        (fun (pattern, origin) ->
          let found, (r : Unistore_triple.Dht.result) =
            Common.await (Unistore.sim store) (run ~pattern ~origin)
          in
          if not r.complete then failwith "rank bench: incomplete selection";
          let ids =
            List.sort_uniq compare
              (List.map
                 (fun (tr : Triple.t) ->
                   tr.Triple.oid ^ "/" ^ Value.to_display tr.Triple.value)
                 found)
          in
          let got = List.map (fun (tr : Triple.t) -> tr.Triple.oid) found in
          (ids, recall ~got ~want:(oracle_of pattern)))
        specs
    in
    let latency = Unistore.now store -. t0 in
    {
      messages = Metrics.counter m "net.sent";
      bytes = Metrics.counter m "net.bytes.sent";
      latency;
      rows = List.sort compare (List.concat_map fst per_pattern);
      recall = List.fold_left (fun acc (_, r) -> Float.min acc r) 1.0 per_pattern;
    }
  in
  let topn = query_phase topn_query topn_origins (topn_oracle data) "s" in
  let skyline = query_phase skyline_query skyline_origins (skyline_oracle data) "s" in
  let skyline_bytes_saved = Metrics.counter m "probe.reduce.bytes.saved" in
  let sim =
    tstore_phase sim_specs
      (fun ~pattern ~origin k -> Tstore.similar ts ~origin ~attr:(Some "name") ~pattern ~d:1 ~k)
      (sim_oracle data)
  in
  let substring =
    tstore_phase substring_specs
      (fun ~pattern ~origin k -> Tstore.containing ts ~origin ~attr:(Some "name") ~pattern ~k)
      (substring_oracle data)
  in
  { topn; skyline; sim; substring; skyline_bytes_saved }

(* ------------------------------------------------------------------ *)

let ops = [ "topn"; "skyline"; "sim"; "substring" ]
let op_of c = function
  | "topn" -> c.topn
  | "skyline" -> c.skyline
  | "sim" -> c.sim
  | _ -> c.substring

let measure ~overlay_name ~overlay ~peers ~nrows =
  let c = run_cell ~overlay ~peers ~nrows in
  List.iter
    (fun name ->
      let o = op_of c name in
      if o.recall < 1.0 then
        failwith
          (Printf.sprintf "rank bench: %s/%s recall %.3f below 1" overlay_name name o.recall))
    ops;
  Common.subsection (Printf.sprintf "%s, %d peers, %d tuples" overlay_name peers nrows);
  Common.print_table [ "operator"; "msgs"; "bytes"; "latency ms"; "rows" ]
    (List.map
       (fun name ->
         let o = op_of c name in
         [ name; Common.i o.messages; Common.i o.bytes; Common.f1 o.latency;
           Common.i (List.length o.rows) ])
       ops);
  Printf.printf "skyline bytes dropped at the leaves: %d; full recall\n" c.skyline_bytes_saved;
  c

(* The overlays must agree row for row: the fast paths change which
   bytes travel, never the answer. *)
let check_agree ~peers pgrid chord =
  List.iter
    (fun name ->
      if not (List.equal String.equal (op_of pgrid name).rows (op_of chord name).rows) then
        failwith
          (Printf.sprintf "rank bench: %s at %d peers: pgrid and chord returned different rows"
             name peers))
    ops

let op_json (o : op) =
  Json.Obj
    [
      ("messages", Json.Int o.messages);
      ("bytes", Json.Int o.bytes);
      ("latency_ms", Json.Float o.latency);
      ("rows", Json.Int (List.length o.rows));
      ("recall", Json.Float o.recall);
    ]

let cell_json ~overlay_name ~peers ~nrows c =
  Json.Obj
    ([ ("overlay", Json.Str overlay_name); ("peers", Json.Int peers); ("tuples", Json.Int nrows) ]
    @ List.map (fun name -> (name, op_json (op_of c name))) ops
    @ [ ("skyline_bytes_saved_in_network", Json.Int c.skyline_bytes_saved) ])

let sizes = [ (48, 192); (96, 384); (192, 768) ]

let measure_pair ~peers ~nrows =
  let pgrid = measure ~overlay_name:"pgrid" ~overlay:Unistore.Pgrid ~peers ~nrows in
  let chord = measure ~overlay_name:"chord" ~overlay:Unistore.Chord_trie ~peers ~nrows in
  check_agree ~peers pgrid chord;
  (pgrid, chord)

let run () =
  Common.section "E-rank: similarity & ranking, P-Grid vs Chord head-to-head"
    "budgeted top-N traversal, leaf-local partial skylines, count-filter gram pruning and \
     batched gram fetches cut ranking/similarity traffic without losing a single row";
  let pairs = List.map (fun (peers, nrows) -> ((peers, nrows), measure_pair ~peers ~nrows)) sizes in
  let cells overlay_name pick =
    List.map
      (fun ((peers, nrows), pair) -> cell_json ~overlay_name ~peers ~nrows (pick pair))
      pairs
  in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int 2);
        ( "description",
          Json.Str
            "UniStore ranking/similarity operators on both overlays at three network sizes, \
             one deployment per (overlay, size) at the default configuration: every fast \
             path runs wherever the overlay supports it. Operators: top-N (budgeted ordered \
             traversal on P-Grid, full-region fetch on Chord), skyline (leaf-local partial \
             skyline pushdown on P-Grid, ship-everything on Chord), similarity selection \
             (count-filter gram pruning; one batched MultiLookup on P-Grid, one lookup per \
             gram on Chord), substring selection (3-gram positional pruning). Both overlays \
             returned identical rows at recall 1.0 against local oracles — asserted. \
             Regenerate with `dune exec bench/main.exe -- rank`. See EXPERIMENTS.md, \
             section 'Ranking & similarity'." );
        ( "config",
          Json.Obj
            [
              ("seed", Json.Int 42);
              ("latency_model", Json.Str "lan");
              ("workload", Json.Str "synthetic zipf-named tuples (score, x, y, name)");
              ("topn_limit", Json.Int topn_limit);
              ("edit_distance", Json.Int 1);
              ("caching", Json.Str "disabled");
            ] );
        ("results", Json.Arr (cells "pgrid" fst @ cells "chord" snd));
      ]
  in
  let oc = open_out out_file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" out_file
