(* Unit and property tests for the observability layer (unistore_obs):
   histogram bucket/percentile math, metrics registry semantics, and the
   JSON encoder/decoder round-trip. *)

open Unistore_obs

let check = Alcotest.check
let qtest ?(count = 500) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let checkf = check (Alcotest.float 1e-9)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histo_empty () =
  let h = Histogram.create () in
  check Alcotest.int "count" 0 (Histogram.count h);
  checkf "sum" 0.0 (Histogram.sum h);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Histogram.mean h));
  Alcotest.(check bool) "p50 nan" true (Float.is_nan (Histogram.percentile h 50.0));
  Alcotest.(check bool) "min nan" true (Float.is_nan (Histogram.min_value h))

let test_histo_single_sample () =
  let h = Histogram.create () in
  Histogram.observe h 7.3;
  check Alcotest.int "count" 1 (Histogram.count h);
  (* Clamping into [min, max] makes every percentile of one sample the
     sample itself, not a bucket edge. *)
  checkf "p50" 7.3 (Histogram.percentile h 50.0);
  checkf "p99" 7.3 (Histogram.percentile h 99.0);
  checkf "p0" 7.3 (Histogram.percentile h 0.0);
  checkf "mean" 7.3 (Histogram.mean h)

let test_histo_all_in_one_bucket () =
  (* Bounds 10/20/30: every sample lands in the first bucket. *)
  let h = Histogram.create ~buckets:[ 10.; 20.; 30. ] () in
  List.iter (Histogram.observe h) [ 3.0; 4.0; 5.0 ];
  let p50 = Histogram.percentile h 50.0 in
  Alcotest.(check bool) "p50 within observed range" true (p50 >= 3.0 && p50 <= 5.0);
  checkf "p100 = max" 5.0 (Histogram.percentile h 100.0);
  checkf "p0 = min" 3.0 (Histogram.percentile h 0.0)

let test_histo_overflow_bucket () =
  let h = Histogram.create ~buckets:[ 1.; 2. ] () in
  List.iter (Histogram.observe h) [ 0.5; 100.0; 200.0 ];
  check Alcotest.int "count" 3 (Histogram.count h);
  (match Histogram.buckets h with
  | [ (_, c1); (_, c2); (inf_b, c3) ] ->
    check Alcotest.int "first bucket" 1 c1;
    check Alcotest.int "second bucket" 0 c2;
    check Alcotest.int "overflow count" 2 c3;
    Alcotest.(check bool) "overflow bound" true (inf_b = Float.infinity)
  | _ -> Alcotest.fail "expected 3 buckets");
  (* Inside the overflow bucket interpolation uses the observed max as the
     upper edge, so percentiles stay within the data and p100 is exact. *)
  let p99 = Histogram.percentile h 99.0 in
  Alcotest.(check bool) "p99 bounded by data" true (p99 > 2.0 && p99 <= 200.0);
  checkf "p100 = max" 200.0 (Histogram.percentile h 100.0)

let test_histo_uniform_percentiles () =
  (* 1..100 on unit buckets: percentiles should track ranks closely. *)
  let h = Histogram.create ~buckets:(Histogram.linear ~lo:1.0 ~step:1.0 ~n:100) () in
  for i = 1 to 100 do
    Histogram.observe h (float_of_int i)
  done;
  let p50 = Histogram.percentile h 50.0 in
  let p95 = Histogram.percentile h 95.0 in
  let p99 = Histogram.percentile h 99.0 in
  Alcotest.(check bool) "p50 near 50" true (Float.abs (p50 -. 50.0) <= 1.0);
  Alcotest.(check bool) "p95 near 95" true (Float.abs (p95 -. 95.0) <= 1.0);
  Alcotest.(check bool) "p99 near 99" true (Float.abs (p99 -. 99.0) <= 1.0);
  checkf "mean" 50.5 (Histogram.mean h);
  checkf "sum" 5050.0 (Histogram.sum h)

let test_histo_rejects_bad_buckets () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Histogram.create: buckets must be non-empty and increasing") (fun () ->
      ignore (Histogram.create ~buckets:[] ()));
  Alcotest.check_raises "not increasing"
    (Invalid_argument "Histogram.create: buckets must be non-empty and increasing") (fun () ->
      ignore (Histogram.create ~buckets:[ 2.0; 1.0 ] ()))

let test_histo_negative_values () =
  let h = Histogram.create ~buckets:[ -5.; 0.; 5. ] () in
  List.iter (Histogram.observe h) [ -7.0; -1.0; 3.0 ];
  checkf "min" (-7.0) (Histogram.min_value h);
  checkf "max" 3.0 (Histogram.max_value h);
  let p50 = Histogram.percentile h 50.0 in
  Alcotest.(check bool) "p50 in range" true (p50 >= -7.0 && p50 <= 3.0)

let percentile_monotone =
  qtest "percentile monotone in p" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.observe h) xs;
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ] in
      let vs = List.map (Histogram.percentile h) ps in
      let rec mono = function a :: (b :: _ as rest) -> a <= b && mono rest | _ -> true in
      mono vs)

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_counter_semantics () =
  let m = Metrics.create () in
  check Alcotest.int "absent = 0" 0 (Metrics.counter m "x");
  Metrics.incr m "x";
  Metrics.incr m "x" ~by:5;
  check Alcotest.int "1 + 5" 6 (Metrics.counter m "x");
  Metrics.incr m "y";
  check Alcotest.int "independent" 1 (Metrics.counter m "y");
  Alcotest.(check (list (pair string int)))
    "sorted listing"
    [ ("x", 6); ("y", 1) ]
    (Metrics.counters m)

let test_gauge_semantics () =
  let m = Metrics.create () in
  Alcotest.(check (option (float 0.0))) "absent" None (Metrics.gauge m "g");
  Metrics.set_gauge m "g" 2.5;
  Metrics.set_gauge m "g" 3.5;
  Alcotest.(check (option (float 0.0))) "last write wins" (Some 3.5) (Metrics.gauge m "g")

let test_histogram_find_or_create () =
  let m = Metrics.create () in
  Metrics.observe m "h" ~buckets:[ 1.; 10. ] 5.0;
  (* Buckets on later touches are ignored: same series. *)
  Metrics.observe m "h" ~buckets:[ 99. ] 7.0;
  let h = Metrics.histogram m "h" in
  check Alcotest.int "one series, two samples" 2 (Histogram.count h)

let test_clear () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.set_gauge m "g" 1.0;
  Metrics.observe m "h" 1.0;
  Metrics.clear m;
  check Alcotest.int "counter gone" 0 (Metrics.counter m "c");
  Alcotest.(check (option (float 0.0))) "gauge gone" None (Metrics.gauge m "g");
  Alcotest.(check (list (pair string int))) "no counters" [] (Metrics.counters m)

let test_metrics_json_shape () =
  let m = Metrics.create () in
  Metrics.incr m "net.sent" ~by:3;
  Metrics.set_gauge m "depth" 4.0;
  Metrics.observe m "hops" 2.0;
  let j = Metrics.to_json m in
  (match Json.of_string (Json.to_string j) with
  | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  | Ok parsed ->
    Alcotest.(check bool) "round-trips" true (parsed = j);
    (match Json.member "counters" parsed with
    | Some (Json.Obj [ ("net.sent", Json.Int 3) ]) -> ()
    | _ -> Alcotest.fail "counters member wrong");
    (match Json.member "histograms" parsed with
    | Some (Json.Obj [ ("hops", h) ]) ->
      (match Json.member "count" h with
      | Some (Json.Int 1) -> ()
      | _ -> Alcotest.fail "histogram count wrong")
    | _ -> Alcotest.fail "histograms member wrong"))

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_encode_basics () =
  check Alcotest.string "null" "null" (Json.to_string ~minify:true Json.Null);
  check Alcotest.string "escapes" "\"a\\\"b\\\\c\\nd\""
    (Json.to_string ~minify:true (Json.Str "a\"b\\c\nd"));
  check Alcotest.string "nan -> null" "null" (Json.to_string ~minify:true (Json.Float Float.nan));
  check Alcotest.string "inf -> null" "null"
    (Json.to_string ~minify:true (Json.Float Float.infinity));
  check Alcotest.string "compound" "{\"a\":[1,2.5,true],\"b\":{}}"
    (Json.to_string ~minify:true
       (Json.Obj [ ("a", Json.Arr [ Json.Int 1; Json.Float 2.5; Json.Bool true ]); ("b", Json.Obj []) ]))

let test_json_parse_basics () =
  let ok s v =
    match Json.of_string s with
    | Ok v' -> Alcotest.(check bool) (Printf.sprintf "parse %s" s) true (v = v')
    | Error e -> Alcotest.failf "parse %s failed: %s" s e
  in
  ok "null" Json.Null;
  ok " [ 1 , -2 , 3.5e2 ] " (Json.Arr [ Json.Int 1; Json.Int (-2); Json.Float 350.0 ]);
  ok "{\"k\": \"v\\u0041\"}" (Json.Obj [ ("k", Json.Str "vA") ]);
  (match Json.of_string "[1," with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input accepted");
  match Json.of_string "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

let json_gen =
  let open QCheck2.Gen in
  sized_size (int_range 0 3) (fun n ->
      fix
        (fun self n ->
          let scalar =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
                (* Halves round-trip exactly through %.12g. *)
                map (fun i -> Json.Float (float_of_int i /. 2.0)) (int_range (-10000) 10000);
                map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 12));
              ]
          in
          if n = 0 then scalar
          else
            oneof
              [
                scalar;
                map (fun xs -> Json.Arr xs) (list_size (int_range 0 4) (self (n - 1)));
                map
                  (fun kvs ->
                    (* Object keys must be distinct or assoc-equality breaks. *)
                    let seen = Hashtbl.create 8 in
                    Json.Obj
                      (List.filter
                         (fun (k, _) ->
                           if Hashtbl.mem seen k then false
                           else begin
                             Hashtbl.replace seen k ();
                             true
                           end)
                         kvs))
                  (list_size (int_range 0 4)
                     (pair (string_size ~gen:printable (int_range 0 8)) (self (n - 1))));
              ])
        n)

let json_roundtrip =
  qtest "encode/decode round-trip" ~count:300 json_gen (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> v = v'
      | Error _ -> false)

let json_roundtrip_minified =
  qtest "minified round-trip" ~count:300 json_gen (fun v ->
      match Json.of_string (Json.to_string ~minify:true v) with
      | Ok v' -> v = v'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Profile *)

let test_profile_json_shape () =
  let p =
    {
      Profile.query = Some "SELECT ?n WHERE { (?a,'name',?n) }";
      strategy = "centralized";
      rows = 2;
      messages = 10;
      latency_ms = 12.5;
      bytes_shipped = 0;
      complete = true;
      completeness = 1.0;
      ops =
        [
          {
            Profile.label = "(?a,'name',?n)";
            access = "av-scan(name)";
            carrier = 3;
            rows_in = 0;
            rows_out = 2;
            messages = 10;
            latency_ms = 12.5;
            at_start = true;
          };
        ];
    }
  in
  match Json.of_string (Json.to_string (Profile.to_json p)) with
  | Error e -> Alcotest.failf "profile JSON does not parse: %s" e
  | Ok j -> (
    (match Json.member "operators" j with
    | Some (Json.Arr [ op ]) -> (
      match (Json.member "rows_out" op, Json.member "carrier" op) with
      | Some (Json.Int 2), Some (Json.Int 3) -> ()
      | _ -> Alcotest.fail "operator fields wrong")
    | _ -> Alcotest.fail "operators member wrong");
    match Json.member "complete" j with
    | Some (Json.Bool true) -> ()
    | _ -> Alcotest.fail "complete member wrong")

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histo_empty;
          Alcotest.test_case "single sample" `Quick test_histo_single_sample;
          Alcotest.test_case "all in one bucket" `Quick test_histo_all_in_one_bucket;
          Alcotest.test_case "overflow bucket" `Quick test_histo_overflow_bucket;
          Alcotest.test_case "uniform percentiles" `Quick test_histo_uniform_percentiles;
          Alcotest.test_case "rejects bad buckets" `Quick test_histo_rejects_bad_buckets;
          Alcotest.test_case "negative values" `Quick test_histo_negative_values;
          percentile_monotone;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram find-or-create" `Quick test_histogram_find_or_create;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "to_json shape" `Quick test_metrics_json_shape;
        ] );
      ( "json",
        [
          Alcotest.test_case "encode basics" `Quick test_json_encode_basics;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          json_roundtrip;
          json_roundtrip_minified;
        ] );
      ("profile", [ Alcotest.test_case "to_json shape" `Quick test_profile_json_shape ]);
    ]
