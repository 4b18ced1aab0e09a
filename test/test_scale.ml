(* Scale-kernel regression tests: the invariants the flat-array
   simulator rebuild must preserve. Five concerns:

   - scheduler ordering and FIFO stability (the determinism bedrock),
   - peer-arena id reuse across kill/revive churn vs a reference model,
   - packed Bitkey encode/decode agrees with the old string encoding,
   - same seed => byte-identical trace at 10k peers under churn,
   - every operation of an insert+lookup storm completes at 1k and 10k
     peers.

   See DESIGN.md, "Simulator kernel internals", for why each invariant
   matters. *)

open Unistore_util
module Pqueue = Unistore_sim.Pqueue
module Sim = Unistore_sim.Sim
module Latency = Unistore_sim.Latency
module Net = Unistore_sim.Net
module Trace = Unistore_sim.Trace
module Faults = Unistore_sim.Faults
module Config = Unistore_pgrid.Config
module Build = Unistore_pgrid.Build
module Overlay = Unistore_pgrid.Overlay

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Scheduler: total order = (priority, insertion sequence). The heap is
   4-ary on parallel arrays; none of that may leak into the order. *)

let prop_pqueue_stable_sort =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"pqueue: drain = stable sort by priority"
       (* Few distinct priorities so ties are common — stability is the
          interesting half of the property. *)
       QCheck2.Gen.(list_size (0 -- 200) (int_bound 7))
       (fun prios ->
         let q = Pqueue.create () in
         let tagged = List.mapi (fun i p -> (float_of_int p, i)) prios in
         List.iter (fun (p, i) -> Pqueue.push q ~priority:p i) tagged;
         let rec drain acc =
           match Pqueue.pop q with
           | Some (p, i) -> drain ((p, i) :: acc)
           | None -> List.rev acc
         in
         drain [] = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) tagged))

let prop_pqueue_interleaved =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"pqueue: interleaved push/pop stays a min-heap"
       (* true = push the given priority, false = pop. *)
       QCheck2.Gen.(list_size (0 -- 150) (pair bool (float_bound_inclusive 100.0)))
       (fun ops ->
         let q = Pqueue.create () in
         let model = ref [] in
         List.for_all
           (fun (push, p) ->
             if push then begin
               Pqueue.push q ~priority:p p;
               model := p :: !model;
               true
             end
             else
               match (Pqueue.pop q, List.sort Float.compare !model) with
               | None, [] -> true
               | Some (got, _), least :: rest ->
                 model := rest;
                 got = least
               | None, _ :: _ | Some _, [] -> false)
           ops))

(* ------------------------------------------------------------------ *)
(* Peer arena: swap-remove alive set vs a naive reference model, under a
   random register/kill/revive/re-register storm. Catches stale
   alive_pos entries and id-slot reuse bugs. *)

let prop_arena_vs_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"net arena: kill/revive churn matches model"
       (* (op, id): 0 register, 1 kill, 2 revive; ids collide on purpose. *)
       QCheck2.Gen.(list_size (0 -- 300) (pair (int_bound 2) (int_bound 40)))
       (fun ops ->
         let sim = Sim.create () in
         let rng = Rng.create 5 in
         let latency = Latency.create (Latency.Constant 1.0) ~n:64 ~rng in
         let net = Net.create sim ~latency ~rng () in
         let registered = Hashtbl.create 64 in
         let alive = Hashtbl.create 64 in
         List.iter
           (fun (op, id) ->
             match op with
             | 0 ->
               Net.register net id (fun ~src:_ _ -> ());
               Hashtbl.replace registered id ();
               Hashtbl.replace alive id ()
             | 1 ->
               Net.kill net id;
               if Hashtbl.mem registered id then Hashtbl.remove alive id
             | _ ->
               Net.revive net id;
               if Hashtbl.mem registered id then Hashtbl.replace alive id ())
           ops;
         let sorted h = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) h []) in
         Net.alive_peers net = sorted alive
         && Net.peers net = sorted registered
         && Net.alive_count net = Hashtbl.length alive
         && Net.registered_count net = Hashtbl.length registered
         && List.for_all (fun id -> Net.is_alive net id = Hashtbl.mem alive id)
              (List.init 42 Fun.id)))

let test_arena_random_alive_only_alive () =
  let sim = Sim.create () in
  let rng = Rng.create 11 in
  let latency = Latency.create (Latency.Constant 1.0) ~n:32 ~rng in
  let net = Net.create sim ~latency ~rng () in
  for i = 0 to 31 do
    Net.register net i (fun ~src:_ _ -> ())
  done;
  (* Kill every even peer; sampling must only ever return odd ids. *)
  for i = 0 to 31 do
    if i mod 2 = 0 then Net.kill net i
  done;
  let srng = Rng.create 42 in
  for _ = 1 to 500 do
    match Net.random_alive net srng with
    | Some id when id mod 2 = 1 && id < 32 -> ()
    | Some id -> Alcotest.failf "random_alive returned dead/unknown peer %d" id
    | None -> Alcotest.fail "random_alive returned None on a live network"
  done;
  (* Drain the alive set completely: sampling must return None, and a
     revive must bring it straight back. *)
  for i = 0 to 31 do
    Net.kill net i
  done;
  (match Net.random_alive net srng with
  | None -> ()
  | Some id -> Alcotest.failf "random_alive on empty alive set returned %d" id);
  Net.revive net 7;
  check Alcotest.(option int) "only survivor sampled" (Some 7) (Net.random_alive net srng)

let test_arena_iter_alive_sorted () =
  let sim = Sim.create () in
  let rng = Rng.create 13 in
  let latency = Latency.create (Latency.Constant 1.0) ~n:64 ~rng in
  let net = Net.create sim ~latency ~rng () in
  (* Register out of order, churn a little: iteration order must stay
     ascending by id regardless of internal swap-remove shuffling. *)
  List.iter (fun i -> Net.register net i (fun ~src:_ _ -> ())) [ 9; 2; 31; 0; 17; 4 ];
  Net.kill net 17;
  Net.kill net 2;
  Net.revive net 2;
  let seen = ref [] in
  Net.iter_alive net (fun id -> seen := id :: !seen);
  check Alcotest.(list int) "ascending id order" [ 0; 2; 4; 9; 31 ] (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Bitkey: the packed (int-word) representation must be observationally
   identical to the old char-per-bit strings. Generate lengths past 64
   so both the small (two-word) and wide (Bytes) variants are hit. *)

let gen_bits = QCheck2.Gen.(map (String.concat "") (list_size (0 -- 150) (oneofl [ "0"; "1" ])))

let prop_bitkey_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"bitkey: of_string/to_string round-trip" gen_bits
       (fun s -> Bitkey.to_string (Bitkey.of_string s) = s))

let prop_bitkey_compare_matches_strings =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"bitkey: compare = string compare on literals"
       QCheck2.Gen.(pair gen_bits gen_bits)
       (fun (a, b) ->
         (* On '0'/'1' literals, lexicographic string order (prefix-first)
            is exactly the old representation's order. *)
         let sign x = Stdlib.compare x 0 in
         sign (Bitkey.compare (Bitkey.of_string a) (Bitkey.of_string b))
         = sign (String.compare a b)))

let prop_bitkey_ops_match_strings =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"bitkey: take/drop/concat/get match string ops"
       QCheck2.Gen.(pair gen_bits gen_bits)
       (fun (a, b) ->
         let ka = Bitkey.of_string a and kb = Bitkey.of_string b in
         let n = String.length a / 2 in
         Bitkey.to_string (Bitkey.take ka n) = String.sub a 0 n
         && Bitkey.to_string (Bitkey.drop ka n) = String.sub a n (String.length a - n)
         && Bitkey.to_string (Bitkey.concat ka kb) = a ^ b
         && Bitkey.length ka = String.length a
         && (a = "" || Bitkey.get ka (String.length a - 1) = (a.[String.length a - 1] = '1'))
         (* Every prefix of the key, the whole key included: random pairs
            never share prefixes this long, so only this reaches the
            63/64-bit boundary between the two-word and Bytes forms. *)
         && List.for_all
              (fun m ->
                let p = Bitkey.take ka m in
                Bitkey.common_prefix_len ka p = m && Bitkey.is_prefix ~prefix:p ka)
              (List.init (String.length a + 1) Fun.id)))

(* ------------------------------------------------------------------ *)
(* Determinism at 10k peers: two runs from the same seed — overlay
   build, insert+lookup workload, crash/revive churn — must produce a
   byte-identical message trace and fault log. This is the contract the
   fault-replay tooling (EXPERIMENTS.md "Churn") rests on; the arena
   rebuild must not let iteration order leak heap layout. *)

let render_trace tr =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%.6f %d>%d %s %dB c%d %s\n" e.Trace.time e.Trace.src e.Trace.dst
           e.Trace.kind e.Trace.bytes e.Trace.corr
           (Format.asprintf "%a" Trace.pp_outcome e.Trace.outcome)))
    (Trace.events tr);
  Buffer.contents buf

let run_10k_once () =
  let n = 10_000 in
  let sim = Sim.create () in
  let rng = Rng.create 4242 in
  let latency = Latency.create Latency.Lan ~n ~rng in
  let ov = Build.oracle sim ~latency ~rng ~config:Config.default ~n ~sample_keys:[] ~balanced:true () in
  let tr = Trace.create () in
  Net.set_trace (Overlay.net ov) (Some tr);
  let spec =
    Faults.spec ~seed:99 ~duration_ms:5_000.0
      ~churn:(Faults.churn_spec ~interval_ms:1_000.0 ~down_ms:2_000.0 ~rate:0.01 ())
      ()
  in
  let h = Faults.inject (Overlay.net ov) spec in
  let wrng = Rng.create 777 in
  for i = 0 to 199 do
    let key = String.init 8 (fun _ -> Char.chr (Rng.int wrng 256)) in
    let origin = Rng.int wrng n in
    Overlay.insert ov ~origin ~key ~item_id:(string_of_int i) ~payload:"p" ~k:(fun _ -> ()) ();
    let lorigin = Rng.int wrng n in
    Overlay.lookup ov ~origin:lorigin ~key ~k:(fun _ -> ())
  done;
  Sim.run_all sim;
  (render_trace tr, Faults.render_log h, Sim.processed sim)

let test_determinism_10k () =
  let trace1, faults1, events1 = run_10k_once () in
  let trace2, faults2, events2 = run_10k_once () in
  Alcotest.(check bool) "trace non-trivial" true (String.length trace1 > 1000);
  Alcotest.(check bool) "faults fired" true (String.length faults1 > 0);
  check Alcotest.int "same event count" events1 events2;
  check Alcotest.string "byte-identical fault log" faults1 faults2;
  (* The trace can be megabytes; compare lengths first for a readable
     failure, then the bytes. *)
  check Alcotest.int "same trace length" (String.length trace1) (String.length trace2);
  Alcotest.(check bool) "byte-identical trace" true (String.equal trace1 trace2)

(* ------------------------------------------------------------------ *)
(* Completion at scale: on a balanced overlay of [n] peers, issue every
   insert of a uniform-key storm up front and drain, then the same for
   lookups; every operation must call back. No clock is read. *)

let test_storm_completes n () =
  let sim = Sim.create () in
  let rng = Rng.create (9000 + n) in
  let latency = Latency.create Latency.Lan ~n ~rng in
  let ov = Build.oracle sim ~latency ~rng ~config:Config.default ~n ~sample_keys:[] ~balanced:true () in
  let ops = min 20_000 (max 1_000 n) in
  let wrng = Rng.create (77 + n) in
  let keys = Array.init ops (fun _ -> String.init 8 (fun _ -> Char.chr (Rng.int wrng 256))) in
  let completed = ref 0 in
  Array.iteri
    (fun i key ->
      Overlay.insert ov ~origin:(Rng.int wrng n) ~key ~item_id:(string_of_int i) ~payload:"x"
        ~k:(fun _ -> incr completed)
        ())
    keys;
  Sim.run_all sim;
  Array.iter
    (fun key -> Overlay.lookup ov ~origin:(Rng.int wrng n) ~key ~k:(fun _ -> incr completed))
    keys;
  Sim.run_all sim;
  check Alcotest.int (Printf.sprintf "operations completed at %d peers" n) (2 * ops) !completed

let () =
  Alcotest.run "unistore_scale"
    [
      ("scheduler", [ prop_pqueue_stable_sort; prop_pqueue_interleaved ]);
      ( "arena",
        [
          prop_arena_vs_model;
          Alcotest.test_case "random_alive samples only alive" `Quick
            test_arena_random_alive_only_alive;
          Alcotest.test_case "iter_alive ascending" `Quick test_arena_iter_alive_sorted;
        ] );
      ( "bitkey",
        [ prop_bitkey_roundtrip; prop_bitkey_compare_matches_strings; prop_bitkey_ops_match_strings ]
      );
      ("determinism", [ Alcotest.test_case "10k peers, same seed, same trace" `Quick test_determinism_10k ]);
      ( "completion",
        [
          Alcotest.test_case "every operation completes at 1k peers" `Quick (test_storm_completes 1_000);
          Alcotest.test_case "every operation completes at 10k peers" `Quick
            (test_storm_completes 10_000);
        ] );
    ]
