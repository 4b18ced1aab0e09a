(* Unit and property tests for the shared kernel (unistore_util). *)

open Unistore_util

let check = Alcotest.check
let qtest ?(count = 500) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Int64.equal (Rng.bits64 a) (Rng.bits64 b))

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.failf "Rng.int out of bounds: %d" v
  done

let test_rng_int_rejects () =
  let r = Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0") (fun () ->
      ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.create 9 in
  for _ = 1 to 500 do
    let v = Rng.int_in r (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "int_in out of bounds: %d" v
  done

let test_rng_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create 5 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_distinct () =
  let r = Rng.create 11 in
  let l = List.init 100 (fun i -> i) in
  let s = Rng.sample r 10 l in
  check Alcotest.int "size" 10 (List.length s);
  check Alcotest.int "distinct" 10 (List.length (List.sort_uniq compare s))

let test_rng_sample_small () =
  let r = Rng.create 11 in
  check Alcotest.int "all taken" 3 (List.length (Rng.sample r 10 [ 1; 2; 3 ]));
  check Alcotest.(list int) "empty" [] (Rng.sample r 5 [])

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  (* The split stream must differ from the parent's continuation. *)
  Alcotest.(check bool) "independent" false (Int64.equal (Rng.bits64 a) (Rng.bits64 b))

let test_rng_bool_bias () =
  let r = Rng.create 13 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool r ~p:0.25 then incr hits
  done;
  let frac = float_of_int !hits /. 10_000.0 in
  if frac < 0.22 || frac > 0.28 then Alcotest.failf "bool(~p:0.25) frequency off: %f" frac

let test_rng_gaussian_moments () =
  let r = Rng.create 17 in
  let xs = List.init 20_000 (fun _ -> Rng.gaussian r) in
  let m = Stats.mean xs and sd = Stats.stddev xs in
  if Float.abs m > 0.05 then Alcotest.failf "gaussian mean off: %f" m;
  if Float.abs (sd -. 1.0) > 0.05 then Alcotest.failf "gaussian sd off: %f" sd

(* ------------------------------------------------------------------ *)
(* Bitkey *)

let bits_gen = QCheck2.Gen.(string_size ~gen:(oneofl [ '0'; '1' ]) (0 -- 80))

let test_bitkey_roundtrip () =
  let s = "011010011" in
  check Alcotest.string "roundtrip" s (Bitkey.to_string (Bitkey.of_string s))

let test_bitkey_empty () =
  check Alcotest.int "empty length" 0 (Bitkey.length Bitkey.empty);
  check Alcotest.string "empty string" "" (Bitkey.to_string Bitkey.empty)

let test_bitkey_get () =
  let k = Bitkey.of_string "101" in
  Alcotest.(check bool) "bit0" true (Bitkey.get k 0);
  Alcotest.(check bool) "bit1" false (Bitkey.get k 1);
  Alcotest.(check bool) "bit2" true (Bitkey.get k 2);
  Alcotest.check_raises "oob" (Invalid_argument "Bitkey.get: index out of bounds") (fun () ->
      ignore (Bitkey.get k 3))

let test_bitkey_append () =
  let k = Bitkey.of_string "10" in
  check Alcotest.string "append1" "101" (Bitkey.to_string (Bitkey.append_bit k true));
  check Alcotest.string "append0" "100" (Bitkey.to_string (Bitkey.append_bit k false))

let test_bitkey_take_drop () =
  let k = Bitkey.of_string "1011001" in
  check Alcotest.string "take" "1011" (Bitkey.to_string (Bitkey.take k 4));
  check Alcotest.string "drop" "001" (Bitkey.to_string (Bitkey.drop k 4));
  check Alcotest.string "take0" "" (Bitkey.to_string (Bitkey.take k 0));
  check Alcotest.string "drop all" "" (Bitkey.to_string (Bitkey.drop k 7))

let test_bitkey_flip () =
  let k = Bitkey.of_string "000" in
  check Alcotest.string "flip middle" "010" (Bitkey.to_string (Bitkey.flip k 1))

let test_bitkey_prefix () =
  let p = Bitkey.of_string "10" and k = Bitkey.of_string "1011" in
  Alcotest.(check bool) "is_prefix" true (Bitkey.is_prefix ~prefix:p k);
  Alcotest.(check bool) "not prefix" false (Bitkey.is_prefix ~prefix:k p);
  Alcotest.(check bool) "self prefix" true (Bitkey.is_prefix ~prefix:k k)

let test_bitkey_common_prefix () =
  check Alcotest.int "cpl" 2
    (Bitkey.common_prefix_len (Bitkey.of_string "1011") (Bitkey.of_string "1000"));
  check Alcotest.int "cpl disjoint" 0
    (Bitkey.common_prefix_len (Bitkey.of_string "1") (Bitkey.of_string "0"))

let test_bitkey_int64_roundtrip () =
  let k = Bitkey.of_string "1100000000000000000000000000000000000000000000000000000000000001" in
  let x = Bitkey.to_int64 k in
  check Alcotest.string "roundtrip via int64" (Bitkey.to_string k)
    (Bitkey.to_string (Bitkey.of_int64 ~width:64 x))

let test_bitkey_successor () =
  let s k = Option.map Bitkey.to_string (Bitkey.successor (Bitkey.of_string k)) in
  check Alcotest.(option string) "succ 011" (Some "100") (s "011");
  check Alcotest.(option string) "succ 000" (Some "001") (s "000");
  check Alcotest.(option string) "succ 111" None (s "111")

let test_bitkey_pad () =
  let k = Bitkey.of_string "10" in
  check Alcotest.string "pad0" "10000" (Bitkey.to_string (Bitkey.pad k ~width:5 false));
  check Alcotest.string "pad1" "10111" (Bitkey.to_string (Bitkey.pad k ~width:5 true));
  check Alcotest.string "pad noop" "10" (Bitkey.to_string (Bitkey.pad k ~width:1 true))

let test_bitkey_enumerate () =
  let l = Bitkey.enumerate 3 in
  check Alcotest.int "count" 8 (List.length l);
  check Alcotest.string "first" "000" (Bitkey.to_string (List.hd l));
  check Alcotest.string "last" "111" (Bitkey.to_string (List.nth l 7));
  (* sorted *)
  let sorted = List.sort Bitkey.compare l in
  check
    Alcotest.(list string)
    "lexicographic" (List.map Bitkey.to_string l) (List.map Bitkey.to_string sorted)

let prop_bitkey_string_roundtrip =
  qtest "bitkey: of_string/to_string roundtrip" bits_gen (fun s ->
      String.equal s (Bitkey.to_string (Bitkey.of_string s)))

let prop_bitkey_compare_matches_string =
  qtest "bitkey: compare = string compare" QCheck2.Gen.(pair bits_gen bits_gen) (fun (a, b) ->
      let c1 = Bitkey.compare (Bitkey.of_string a) (Bitkey.of_string b) in
      let c2 = String.compare a b in
      compare c1 0 = compare c2 0)

let prop_bitkey_concat =
  qtest "bitkey: concat = string concat" QCheck2.Gen.(pair bits_gen bits_gen) (fun (a, b) ->
      String.equal (a ^ b) (Bitkey.to_string (Bitkey.concat (Bitkey.of_string a) (Bitkey.of_string b))))

let prop_bitkey_take_drop =
  qtest "bitkey: take ^ drop = id" QCheck2.Gen.(pair bits_gen (0 -- 80)) (fun (s, n) ->
      QCheck2.assume (n <= String.length s);
      let k = Bitkey.of_string s in
      String.equal s Bitkey.(to_string (concat (take k n) (drop k n))))

let prop_bitkey_bytes_order =
  qtest "bitkey: of_bytes_prefix preserves order"
    QCheck2.Gen.(pair (string_size (0 -- 12)) (string_size (0 -- 12)))
    (fun (a, b) ->
      let ka = Bitkey.of_bytes_prefix a ~width:64 and kb = Bitkey.of_bytes_prefix b ~width:64 in
      if String.compare a b <= 0 then Bitkey.compare ka kb <= 0 else Bitkey.compare ka kb >= 0)

let prop_bitkey_equal_hash =
  qtest "bitkey: equal implies same hash" bits_gen (fun s ->
      let a = Bitkey.of_string s and b = Bitkey.of_string s in
      Bitkey.equal a b && Bitkey.hash a = Bitkey.hash b)

(* ------------------------------------------------------------------ *)
(* Ophash *)

let test_ophash_int_order () =
  let pairs = [ (-10, 3); (0, 1); (min_int, max_int); (42, 42); (-1, 0) ] in
  List.iter
    (fun (a, b) ->
      let ea = Ophash.encode_int a and eb = Ophash.encode_int b in
      if compare a b <> compare 0 0 && compare (String.compare ea eb) 0 <> compare (compare a b) 0
      then Alcotest.failf "int order broken for %d %d" a b)
    pairs

let test_ophash_int_roundtrip () =
  List.iter
    (fun i -> check Alcotest.int "int roundtrip" i (Ophash.decode_int_at (Ophash.encode_int i) 0))
    [ 0; 1; -1; 42; min_int; max_int; 123456789 ]

let prop_ophash_int_order =
  qtest "ophash: int encoding order-preserving" QCheck2.Gen.(pair int int) (fun (a, b) ->
      let c1 = String.compare (Ophash.encode_int a) (Ophash.encode_int b) in
      compare c1 0 = compare (compare a b) 0)

let prop_ophash_float_order =
  let fgen = QCheck2.Gen.(map (fun f -> if Float.is_nan f then 0.0 else f) float) in
  qtest "ophash: float encoding order-preserving" QCheck2.Gen.(pair fgen fgen) (fun (a, b) ->
      let c1 = String.compare (Ophash.encode_float a) (Ophash.encode_float b) in
      compare c1 0 = compare (Float.compare a b) 0)

let prop_ophash_float_roundtrip =
  let fgen = QCheck2.Gen.(map (fun f -> if Float.is_nan f then 0.0 else f) float) in
  qtest "ophash: float decode roundtrip" fgen (fun f ->
      Float.equal (Ophash.decode_float_at (Ophash.encode_float f) 0) f)

let test_ophash_range_region () =
  let lo, hi = Ophash.range_region ~lo:"apple" ~hi:"banana" in
  Alcotest.(check bool) "lo <= hi" true (Bitkey.compare lo hi <= 0);
  let key = Ophash.bitkey_of_string "avocado" in
  Alcotest.(check bool) "avocado inside" true (Bitkey.compare lo key <= 0 && Bitkey.compare key hi <= 0)

let test_ophash_prefix_region () =
  let lo, hi = Ophash.prefix_region "app" in
  let inside = Ophash.bitkey_of_string "apple" in
  let outside = Ophash.bitkey_of_string "banana" in
  Alcotest.(check bool) "apple in app*" true
    (Bitkey.compare lo inside <= 0 && Bitkey.compare inside hi <= 0);
  Alcotest.(check bool) "banana not in app*" false
    (Bitkey.compare lo outside <= 0 && Bitkey.compare outside hi <= 0)

(* ------------------------------------------------------------------ *)
(* Strdist *)

let test_levenshtein_known () =
  let cases =
    [
      ("", "", 0);
      ("a", "", 1);
      ("", "abc", 3);
      ("kitten", "sitting", 3);
      ("flaw", "lawn", 2);
      ("ICDE", "ICDE", 0);
      ("ICDE", "ICDM", 1);
      ("VLDB", "ICDE", 3);
    ]
  in
  List.iter
    (fun (a, b, d) ->
      check Alcotest.int (Printf.sprintf "d(%s,%s)" a b) d (Strdist.levenshtein a b))
    cases

let str_gen = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'e') (0 -- 12))

let prop_levenshtein_symmetric =
  qtest "levenshtein: symmetric" QCheck2.Gen.(pair str_gen str_gen) (fun (a, b) ->
      Strdist.levenshtein a b = Strdist.levenshtein b a)

let prop_levenshtein_identity =
  qtest "levenshtein: d(a,a)=0" str_gen (fun a -> Strdist.levenshtein a a = 0)

let prop_levenshtein_triangle =
  qtest "levenshtein: triangle inequality" QCheck2.Gen.(triple str_gen str_gen str_gen)
    (fun (a, b, c) ->
      Strdist.levenshtein a c <= Strdist.levenshtein a b + Strdist.levenshtein b c)

let prop_within_distance_agrees =
  qtest "within_distance agrees with levenshtein"
    QCheck2.Gen.(triple str_gen str_gen (0 -- 5))
    (fun (a, b, d) -> Strdist.within_distance a b d = (Strdist.levenshtein a b <= d))

(* Textbook Wagner-Fischer over the full (m+1) x (n+1) matrix, with
   the comparisons written out so it shares nothing with Strdist. *)
let reference_levenshtein a b =
  let m = String.length a and n = String.length b in
  let d = Array.make_matrix (m + 1) (n + 1) 0 in
  for i = 0 to m do
    d.(i).(0) <- i
  done;
  for j = 0 to n do
    d.(0).(j) <- j
  done;
  for i = 1 to m do
    for j = 1 to n do
      let del = d.(i - 1).(j) + 1 and ins = d.(i).(j - 1) + 1 in
      let sub = d.(i - 1).(j - 1) + if a.[i - 1] = b.[j - 1] then 0 else 1 in
      let best = if del < ins then del else ins in
      d.(i).(j) <- (if sub < best then sub else best)
    done
  done;
  d.(m).(n)

let prop_levenshtein_reference =
  qtest "levenshtein and within_distance match the textbook DP"
    QCheck2.Gen.(triple str_gen (string_size ~gen:(char_range 'a' 'h') (0 -- 16)) (0 -- 6))
    (fun (a, b, d) ->
      let r = reference_levenshtein a b in
      Strdist.levenshtein a b = r && Strdist.within_distance a b d = (r <= d))

let test_qgrams () =
  check
    Alcotest.(list string)
    "qgrams of 'abc' q=2"
    [ "#a"; "ab"; "bc"; "c$" ]
    (Strdist.qgrams ~q:2 "abc");
  check Alcotest.(list string) "qgrams empty" [ "#$" ] (Strdist.qgrams ~q:2 "")

let prop_substring_grams_indexed =
  (* Every unpadded q-gram of a pattern occurs among the padded q-grams of
     any string containing the pattern — the completeness argument of the
     substring search. *)
  qtest "substring q-grams appear in containing strings' gram sets"
    QCheck2.Gen.(triple str_gen str_gen str_gen)
    (fun (pre, pat, post) ->
      QCheck2.assume (String.length pat >= 3);
      let value = pre ^ pat ^ post in
      let value_grams = Strdist.distinct_qgrams ~q:3 value in
      List.for_all (fun g -> List.mem g value_grams) (Strdist.substring_qgrams ~q:3 pat))

let test_substring_qgrams () =
  check Alcotest.(list string) "abcd q=3" [ "abc"; "bcd" ] (Strdist.substring_qgrams ~q:3 "abcd");
  check Alcotest.(list string) "short" [] (Strdist.substring_qgrams ~q:3 "ab");
  check Alcotest.(list string) "dedup" [ "aaa" ] (Strdist.substring_qgrams ~q:3 "aaaaa")

let prop_count_filter_sound =
  (* If edist(a,b) <= d then the q-gram count filter must not prune. *)
  qtest "qgram count filter is sound"
    QCheck2.Gen.(triple str_gen str_gen (0 -- 3))
    (fun (a, b, d) ->
      QCheck2.assume (Strdist.levenshtein a b <= d);
      Strdist.passes_count_filter ~q:3 a b d)

let prop_prefix_grams_sound =
  (* The rarest-first count-filter prefix: whenever the similarity index
     applies at all (the pattern has more than d*q gram occurrences, the
     same guard the triple store uses), any string within edit distance d
     of the pattern holds at least one selected gram — so fetching only
     the prefix grams' postings cannot lose a true match. *)
  qtest "prefix_grams never prunes a true match"
    QCheck2.Gen.(triple str_gen str_gen (0 -- 2))
    (fun (a, b, d) ->
      QCheck2.assume (String.length a + 3 - 1 - (d * 3) >= 1);
      QCheck2.assume (Strdist.levenshtein a b <= d);
      let selected = Strdist.prefix_grams ~q:3 ~d a in
      let b_grams = Strdist.distinct_qgrams ~q:3 b in
      List.exists (fun g -> List.mem g b_grams) selected)

let prop_prefix_grams_subset =
  (* Selection only drops grams, and is non-empty for non-empty input. *)
  qtest "prefix_grams is a non-empty subset of the distinct grams"
    QCheck2.Gen.(pair str_gen (0 -- 2))
    (fun (a, d) ->
      let all = Strdist.distinct_qgrams ~q:3 a in
      let sel = Strdist.prefix_grams ~q:3 ~d a in
      sel <> [] && List.for_all (fun g -> List.mem g all) sel)

let test_prefix_grams_rarest_first () =
  (* With an explicit frequency oracle, rare grams are selected first. *)
  let freq = function "#ab" -> 1 | "ab$" -> 2 | _ -> 1000 in
  match Strdist.prefix_grams ~freq ~q:3 ~d:0 "ab" with
  | "#ab" :: _ -> ()
  | gs -> Alcotest.failf "expected rarest gram first, got [%s]" (String.concat ";" gs)

(* ------------------------------------------------------------------ *)
(* Bloom *)

let key_list_gen = QCheck2.Gen.(list_size (0 -- 200) (string_size ~gen:printable (0 -- 12)))

let prop_bloom_no_false_negatives =
  qtest "bloom: every added key is a member" key_list_gen (fun keys ->
      let t = Bloom.of_list keys in
      List.for_all
        (fun k ->
          let padded = "<" ^ k ^ ">" in
          Bloom.mem t k && Bloom.mem_sub t padded ~off:1 ~len:(String.length k))
        keys)

(* [n] distinct random keys of 4 to 12 letters, none in [avoid]. *)
let random_keys rng n ~avoid =
  let seen = Hashtbl.create (2 * n) in
  let rec go acc left =
    if left = 0 then acc
    else begin
      let k = String.init (Rng.int_in rng 4 12) (fun _ -> Char.chr (97 + Rng.int rng 26)) in
      if Hashtbl.mem seen k || Hashtbl.mem avoid k then go acc left
      else begin
        Hashtbl.add seen k ();
        go (k :: acc) (left - 1)
      end
    end
  in
  (go [] n, seen)

(* From 100 keys up the rate stays near its mean of about 0.9%; a
   filter of a few keys has so few bits that its rate spreads widely. *)
let prop_bloom_false_positive_rate =
  qtest ~count:20 "bloom: at most 2% false positives on 10k absent keys"
    QCheck2.Gen.(pair (100 -- 2000) int)
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let present, seen = random_keys rng n ~avoid:(Hashtbl.create 1) in
      let absent, _ = random_keys rng 10_000 ~avoid:seen in
      let t = Bloom.of_list present in
      let fp = List.length (List.filter (Bloom.mem t) absent) in
      fp * 50 <= 10_000)

(* The documented size: [m / 8 = max 1 (ceil (10 n / 8))] bytes of bits
   after a LEB128 varint of that count. *)
let prop_bloom_bytes_formula =
  qtest "bloom: bytes = bit bytes + their varint" QCheck2.Gen.(0 -- 20_000) (fun n ->
      let t = Bloom.create n in
      let nb = max 1 (((Bloom.bits_per_key * n) + 7) / 8) in
      let varint = if nb < 0x80 then 1 else if nb < 0x4000 then 2 else 3 in
      String.length (Bloom.bits t) = nb && Bloom.bytes t = nb + varint)

let prop_bloom_deterministic =
  qtest "bloom: the same keys give the same bits, in any order" key_list_gen (fun keys ->
      Bloom.bits (Bloom.of_list keys) = Bloom.bits (Bloom.of_list (List.rev (keys @ keys))))

(* The hashes are fixed functions of the bytes: a filter built from fixed
   keys holds these bits on every run and host. *)
let test_bloom_pinned_bits () =
  let t = Bloom.of_list [ "alice"; "bob"; "carol"; "dave" ] in
  check Alcotest.int "5 bytes of bits" 5 (String.length (Bloom.bits t));
  check Alcotest.string "bits" "a315c6ff90792de18ea0b0dab22e24b7" (Digest.to_hex (Digest.string (Bloom.bits t)));
  check Alcotest.bool "empty filter admits nothing" false (Bloom.mem (Bloom.of_list []) "alice")

let test_bloom_mem_sub_bounds () =
  let t = Bloom.of_list [ "abc" ] in
  check Alcotest.bool "inside" true (Bloom.mem_sub t "xabcx" ~off:1 ~len:3);
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "off %d len %d" off len)
        (Invalid_argument "Bloom.mem_sub")
        (fun () -> ignore (Bloom.mem_sub t "xabcx" ~off ~len)))
    [ (-1, 2); (0, -1); (3, 3); (6, 0) ]

(* ------------------------------------------------------------------ *)
(* Topk *)

let prop_topk_matches_stable_sort =
  (* The bounded heap returns exactly the first k elements of a stable
     full sort — ties tracked by tagging each element with its arrival
     index and comparing on the value alone. *)
  qtest "topk = stable sort truncated (ties by arrival)"
    QCheck2.Gen.(pair (0 -- 8) (list_size (0 -- 40) (0 -- 4)))
    (fun (k, vs) ->
      let xs = List.mapi (fun i v -> (v, i)) vs in
      let cmp (a, _) (b, _) = Int.compare a b in
      let expect = List.filteri (fun i _ -> i < k) (List.stable_sort cmp xs) in
      Topk.smallest ~cmp k xs = expect)

let test_topk_capacity_zero () =
  check Alcotest.(list int) "keeps nothing" [] (Topk.smallest ~cmp:Int.compare 0 [ 3; 1; 2 ]);
  check
    Alcotest.(list int)
    "negative capacity" [] (Topk.smallest ~cmp:Int.compare (-2) [ 3; 1 ])

let test_topk_capacity_exceeds_input () =
  check
    Alcotest.(list int)
    "whole input sorted" [ 1; 2; 3 ]
    (Topk.smallest ~cmp:Int.compare 10 [ 3; 1; 2 ])

let test_topk_incremental () =
  let t = Topk.create ~cmp:Int.compare 3 in
  check Alcotest.int "empty" 0 (Topk.length t);
  Topk.add_list t [ 9; 4; 7; 1; 8 ];
  check Alcotest.int "bounded" 3 (Topk.length t);
  check Alcotest.int "capacity" 3 (Topk.capacity t);
  check Alcotest.(list int) "three smallest" [ 1; 4; 7 ] (Topk.to_sorted_list t);
  Topk.add t 2;
  check Alcotest.(list int) "displaces the largest" [ 1; 2; 4 ] (Topk.to_sorted_list t)

(* ------------------------------------------------------------------ *)
(* Zipf *)

let test_zipf_probabilities_sum () =
  let z = Zipf.create ~n:100 ~s:1.1 in
  let total = List.fold_left (fun acc r -> acc +. Zipf.probability z r) 0.0 (List.init 100 (fun i -> i + 1)) in
  if Float.abs (total -. 1.0) > 1e-9 then Alcotest.failf "probabilities sum to %f" total

let test_zipf_rank1_most_probable () =
  let z = Zipf.create ~n:50 ~s:0.8 in
  Alcotest.(check bool) "p(1) > p(2)" true (Zipf.probability z 1 > Zipf.probability z 2);
  Alcotest.(check bool) "p(2) > p(50)" true (Zipf.probability z 2 > Zipf.probability z 50)

let test_zipf_uniform () =
  let z = Zipf.create ~n:10 ~s:0.0 in
  if Float.abs (Zipf.probability z 1 -. 0.1) > 1e-9 then Alcotest.fail "uniform when s=0"

let test_zipf_sample_bounds () =
  let z = Zipf.create ~n:20 ~s:1.2 in
  let r = Rng.create 19 in
  for _ = 1 to 2000 do
    let v = Zipf.sample z r in
    if v < 1 || v > 20 then Alcotest.failf "sample out of bounds: %d" v
  done

let test_zipf_skew_effect () =
  let z = Zipf.create ~n:100 ~s:1.5 in
  let r = Rng.create 23 in
  let ones = ref 0 in
  for _ = 1 to 5000 do
    if Zipf.sample z r = 1 then incr ones
  done;
  (* rank 1 carries ~0.37 of the mass at s=1.5, n=100 *)
  let frac = float_of_int !ones /. 5000.0 in
  if frac < 0.3 then Alcotest.failf "rank-1 frequency too low for skewed zipf: %f" frac

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check (Alcotest.float 1e-9) "mean" 3.0 s.Stats.mean;
  check (Alcotest.float 1e-9) "min" 1.0 s.Stats.min;
  check (Alcotest.float 1e-9) "max" 5.0 s.Stats.max;
  check (Alcotest.float 1e-9) "p50" 3.0 s.Stats.p50

let test_stats_percentile () =
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 0.0);
  check (Alcotest.float 1e-9) "p100" 3.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 100.0);
  check (Alcotest.float 1e-9) "p50 interpolated" 2.5 (Stats.percentile [ 1.0; 2.0; 3.0; 4.0 ] 50.0)

let test_stats_online () =
  let o = Stats.Online.create () in
  List.iter (Stats.Online.add o) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check (Alcotest.float 1e-9) "online mean" 5.0 (Stats.Online.mean o);
  check Alcotest.int "online count" 8 (Stats.Online.count o)

let test_stats_linear_fit () =
  let pts = List.init 10 (fun i -> (float_of_int i, (2.0 *. float_of_int i) +. 1.0)) in
  let slope, intercept, r2 = Stats.linear_fit pts in
  check (Alcotest.float 1e-9) "slope" 2.0 slope;
  check (Alcotest.float 1e-9) "intercept" 1.0 intercept;
  check (Alcotest.float 1e-9) "r2" 1.0 r2

(* ------------------------------------------------------------------ *)
(* Cps.window and Cps.all *)

module Sim = Unistore_sim.Sim

(* Element [x] answers [10 * x] after [delay x] simulated ms, or at once
   when [delay x] is negative; [log] records starts and answers. *)
let fan_out sim ~delay log x ~k =
  log := `Start x :: !log;
  let answer () =
    log := `Answer x :: !log;
    k (10 * x)
  in
  if delay x < 0.0 then answer () else Sim.schedule sim ~delay:(delay x) answer

let event = Alcotest.testable (fun fmt -> function
  | `Start x -> Format.fprintf fmt "start %d" x
  | `Answer x -> Format.fprintf fmt "answer %d" x
  | `Done -> Format.fprintf fmt "done") ( = )

let test_cps_all_out_of_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let delay = function 0 -> 30.0 | 1 -> 10.0 | _ -> 20.0 in
  let results = ref [] in
  Cps.all (fan_out sim ~delay log) [ 0; 1; 2 ] ~k:(fun rs ->
      log := `Done :: !log;
      results := rs :: !results;
      check (Alcotest.float 1e-9) "k fires when the last element answers" 30.0 (Sim.now sim));
  check Alcotest.(list event) "every element starts in list order, in the current event"
    [ `Start 0; `Start 1; `Start 2 ] (List.rev !log);
  Sim.run_all sim;
  check Alcotest.(list event) "answers arrive out of order; k runs once, after the last"
    [ `Start 0; `Start 1; `Start 2; `Answer 1; `Answer 2; `Answer 0; `Done ] (List.rev !log);
  check Alcotest.(list (list int)) "results in list order" [ [ 0; 10; 20 ] ] !results

let test_cps_all_synchronous_answers () =
  (* Elements that answer inside their own start (a peer serving its own
     request) must not fire [k] before the later elements have started. *)
  let sim = Sim.create () in
  let log = ref [] in
  let delay x = if x = 1 then 5.0 else -1.0 in
  let results = ref [] in
  Cps.all (fan_out sim ~delay log) [ 0; 1; 2 ] ~k:(fun rs -> results := rs :: !results);
  check Alcotest.(list (list int)) "waits for the scheduled element" [] !results;
  Sim.run_all sim;
  check Alcotest.(list (list int)) "one call, list order" [ [ 0; 10; 20 ] ] !results;
  let sim = Sim.create () in
  let calls = ref [] in
  Cps.all (fan_out sim ~delay:(fun _ -> -1.0) (ref [])) [ 3; 4 ] ~k:(fun rs -> calls := rs :: !calls);
  check Alcotest.(list (list int)) "all synchronous: one call at once" [ [ 30; 40 ] ] !calls

let test_cps_all_empty () =
  let calls = ref [] in
  Cps.all (fun _ ~k:_ -> Alcotest.fail "no element to start") [] ~k:(fun rs -> calls := rs :: !calls);
  check Alcotest.(list (list int)) "k [] at once, exactly once" [ [] ] !calls

(* Outstanding elements after each start and answer of [log] (oldest
   first). *)
let in_flight log =
  List.rev
    (snd
       (List.fold_left
          (fun (n, acc) e ->
            let n = match e with `Start _ -> n + 1 | `Answer _ -> n - 1 | `Done -> n in
            (n, n :: acc))
          (0, []) log))

let test_cps_window_bound () =
  let sim = Sim.create () in
  let log = ref [] in
  (* Element x answers after (7 * x) mod 10 + 1 ms: out of list order. *)
  let delay x = float_of_int ((7 * x mod 10) + 1) in
  let xs = List.init 10 Fun.id in
  let results = ref [] in
  Cps.window 3 (fan_out sim ~delay log) xs ~k:(fun rs ->
      log := `Done :: !log;
      results := rs :: !results);
  check Alcotest.(list event) "the first three start in the current event"
    [ `Start 0; `Start 1; `Start 2 ] (List.rev !log);
  Sim.run_all sim;
  let log = List.rev !log in
  check Alcotest.int "never more than three outstanding" 3
    (List.fold_left max 0 (in_flight log));
  check Alcotest.(list int) "elements start in list order" xs
    (List.filter_map (function `Start x -> Some x | _ -> None) log);
  let answers = List.filter_map (function `Answer x -> Some x | _ -> None) log in
  Alcotest.(check bool) "answers arrive out of order" true (answers <> xs);
  (* Each start after the first three follows an answer at once. *)
  List.iteri
    (fun i e ->
      match e with
      | `Start x when x >= 3 -> (
        match List.nth log (i - 1) with
        | `Answer _ -> ()
        | _ -> Alcotest.failf "element %d started outside an answer's continuation" x)
      | _ -> ())
    log;
  check Alcotest.(list event) "k runs once, last" [ `Done ] [ List.nth log (List.length log - 1) ];
  check Alcotest.(list (list int)) "results in list order" [ List.map (( * ) 10) xs ] !results

let test_cps_window_as_all () =
  (* A window at least the list's length starts every element in the
     current event, as [all] does; element 1 answers inside its start. *)
  let run fan =
    let sim = Sim.create () in
    let log = ref [] in
    let delay = function 0 -> 30.0 | 1 -> -1.0 | _ -> 20.0 in
    fan (fan_out sim ~delay log) [ 0; 1; 2; 3 ] ~k:(fun _ -> log := `Done :: !log);
    let started = List.rev !log in
    Sim.run_all sim;
    (started, List.rev !log)
  in
  List.iter
    (fun (name, fan) ->
      check Alcotest.(pair (list event) (list event)) name
        ( [ `Start 0; `Start 1; `Answer 1; `Start 2; `Start 3 ],
          [ `Start 0; `Start 1; `Answer 1; `Start 2; `Start 3; `Answer 2; `Answer 3; `Answer 0; `Done ] )
        (run fan))
    [ ("window 4", Cps.window 4); ("window 9", Cps.window 9); ("all", Cps.all) ]

let test_cps_window_empty () =
  let calls = ref [] in
  Cps.window 2 (fun _ ~k:_ -> Alcotest.fail "no element to start") [] ~k:(fun rs -> calls := rs :: !calls);
  check Alcotest.(list (list int)) "k [] at once, exactly once" [ [] ] !calls

(* [start] starts its operation in the current event; a taker before
   the answer waits for it, one after gets it at once, and each taker's
   continuation fires exactly once, as does the operation's. *)
let test_cps_start () =
  let sim = Sim.create () in
  let log = ref [] in
  let take = Cps.start (fan_out sim ~delay:(fun _ -> 5.0) log 4) in
  check Alcotest.(list event) "started in the current event" [ `Start 4 ] (List.rev !log);
  let got = ref [] in
  take ~k:(fun y -> got := ("early", y, Sim.now sim) :: !got);
  take ~k:(fun y -> got := ("second early", y, Sim.now sim) :: !got);
  check Alcotest.int "no answer yet" 0 (List.length !got);
  Sim.run_all sim;
  take ~k:(fun y -> got := ("late", y, Sim.now sim) :: !got);
  check
    Alcotest.(list (triple string int (float 1e-9)))
    "each taker once, waiting ones in call order at the answer, a late one at once"
    [ ("early", 40, 5.0); ("second early", 40, 5.0); ("late", 40, 5.0) ]
    (List.rev !got);
  check Alcotest.(list event) "the operation ran once" [ `Start 4; `Answer 4 ] (List.rev !log);
  let now = ref [] in
  Cps.start (fan_out sim ~delay:(fun _ -> -1.0) (ref []) 2) ~k:(fun y -> now := y :: !now);
  check Alcotest.(list int) "a synchronous answer goes to the first taker at once" [ 20 ] !now

let () =
  Alcotest.run "unistore_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects bad bound" `Quick test_rng_int_rejects;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "sample small lists" `Quick test_rng_sample_small;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "bool bias" `Quick test_rng_bool_bias;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
        ] );
      ( "bitkey",
        [
          Alcotest.test_case "roundtrip" `Quick test_bitkey_roundtrip;
          Alcotest.test_case "empty" `Quick test_bitkey_empty;
          Alcotest.test_case "get" `Quick test_bitkey_get;
          Alcotest.test_case "append" `Quick test_bitkey_append;
          Alcotest.test_case "take/drop" `Quick test_bitkey_take_drop;
          Alcotest.test_case "flip" `Quick test_bitkey_flip;
          Alcotest.test_case "prefix" `Quick test_bitkey_prefix;
          Alcotest.test_case "common prefix" `Quick test_bitkey_common_prefix;
          Alcotest.test_case "int64 roundtrip" `Quick test_bitkey_int64_roundtrip;
          Alcotest.test_case "successor" `Quick test_bitkey_successor;
          Alcotest.test_case "pad" `Quick test_bitkey_pad;
          Alcotest.test_case "enumerate" `Quick test_bitkey_enumerate;
          prop_bitkey_string_roundtrip;
          prop_bitkey_compare_matches_string;
          prop_bitkey_concat;
          prop_bitkey_take_drop;
          prop_bitkey_bytes_order;
          prop_bitkey_equal_hash;
        ] );
      ( "ophash",
        [
          Alcotest.test_case "int order cases" `Quick test_ophash_int_order;
          Alcotest.test_case "int roundtrip" `Quick test_ophash_int_roundtrip;
          Alcotest.test_case "range region" `Quick test_ophash_range_region;
          Alcotest.test_case "prefix region" `Quick test_ophash_prefix_region;
          prop_ophash_int_order;
          prop_ophash_float_order;
          prop_ophash_float_roundtrip;
        ] );
      ( "strdist",
        [
          Alcotest.test_case "levenshtein known" `Quick test_levenshtein_known;
          Alcotest.test_case "qgrams" `Quick test_qgrams;
          prop_levenshtein_symmetric;
          prop_levenshtein_identity;
          prop_levenshtein_triangle;
          prop_within_distance_agrees;
          prop_levenshtein_reference;
          prop_count_filter_sound;
          prop_prefix_grams_sound;
          prop_prefix_grams_subset;
          Alcotest.test_case "prefix grams rarest first" `Quick test_prefix_grams_rarest_first;
          prop_substring_grams_indexed;
          Alcotest.test_case "substring qgrams" `Quick test_substring_qgrams;
        ] );
      ( "bloom",
        [
          prop_bloom_no_false_negatives;
          prop_bloom_false_positive_rate;
          prop_bloom_bytes_formula;
          prop_bloom_deterministic;
          Alcotest.test_case "pinned bits" `Quick test_bloom_pinned_bits;
          Alcotest.test_case "mem_sub bounds" `Quick test_bloom_mem_sub_bounds;
        ] );
      ( "topk",
        [
          prop_topk_matches_stable_sort;
          Alcotest.test_case "capacity zero" `Quick test_topk_capacity_zero;
          Alcotest.test_case "capacity exceeds input" `Quick test_topk_capacity_exceeds_input;
          Alcotest.test_case "incremental" `Quick test_topk_incremental;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "probabilities sum" `Quick test_zipf_probabilities_sum;
          Alcotest.test_case "rank order" `Quick test_zipf_rank1_most_probable;
          Alcotest.test_case "uniform at s=0" `Quick test_zipf_uniform;
          Alcotest.test_case "sample bounds" `Quick test_zipf_sample_bounds;
          Alcotest.test_case "skew effect" `Quick test_zipf_skew_effect;
        ] );
      ( "cps",
        [
          Alcotest.test_case "all: out-of-order answers" `Quick test_cps_all_out_of_order;
          Alcotest.test_case "all: synchronous answers" `Quick test_cps_all_synchronous_answers;
          Alcotest.test_case "all: empty list" `Quick test_cps_all_empty;
          Alcotest.test_case "window: bound and order" `Quick test_cps_window_bound;
          Alcotest.test_case "window: at least the length is all" `Quick test_cps_window_as_all;
          Alcotest.test_case "window: empty list" `Quick test_cps_window_empty;
          Alcotest.test_case "start: take later" `Quick test_cps_start;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "online" `Quick test_stats_online;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
        ] );
    ]
