(* Monomorphic on ints: the polymorphic [Stdlib.min]/[max] compile to
   a [caml_lessequal] C call per DP cell unless flambda inlines them. *)
let min (a : int) b = if a <= b then a else b
let max (a : int) b = if a >= b then a else b

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    (* Keep the shorter string in the inner dimension. *)
    let a, b, la, lb = if la <= lb then (a, b, la, lb) else (b, a, lb, la) in
    let prev = Array.init (la + 1) (fun i -> i) in
    let cur = Array.make (la + 1) 0 in
    for j = 1 to lb do
      cur.(0) <- j;
      let bj = b.[j - 1] in
      for i = 1 to la do
        let cost = if a.[i - 1] = bj then 0 else 1 in
        cur.(i) <- min (min (cur.(i - 1) + 1) (prev.(i) + 1)) (prev.(i - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (la + 1)
    done;
    prev.(la)
  end

let within_distance a b d =
  if d < 0 then false
  else begin
    let la = String.length a and lb = String.length b in
    if abs (la - lb) > d then false
    else if d = 0 then String.equal a b
    else begin
      let a, b, la, lb = if la <= lb then (a, b, la, lb) else (b, a, lb, la) in
      (* Banded DP: only cells with |i-j| <= d can be <= d. Cells outside
         the band (or already beyond d) saturate at [inf]. *)
      let inf = d + 1 in
      let sat_add x y = min inf (x + y) in
      let prev = Array.make (la + 1) inf in
      let cur = Array.make (la + 1) inf in
      for i = 0 to min la d do
        prev.(i) <- i
      done;
      let exceeded = ref false in
      let j = ref 1 in
      while (not !exceeded) && !j <= lb do
        let jj = !j in
        Array.fill cur 0 (la + 1) inf;
        let best = ref inf in
        if jj <= d then begin
          cur.(0) <- jj;
          best := jj
        end;
        let lo = max 1 (jj - d) and hi = min la (jj + d) in
        for i = lo to hi do
          let cost = if a.[i - 1] = b.[jj - 1] then 0 else 1 in
          let v =
            min
              (min (sat_add cur.(i - 1) 1) (sat_add prev.(i) 1))
              (sat_add prev.(i - 1) cost)
          in
          cur.(i) <- v;
          if v < !best then best := v
        done;
        if !best >= inf then exceeded := true;
        Array.blit cur 0 prev 0 (la + 1);
        incr j
      done;
      (not !exceeded) && prev.(la) <= d
    end
  end

let qgrams ~q s =
  if q <= 0 then invalid_arg "Strdist.qgrams: q <= 0";
  let padded = String.make (q - 1) '#' ^ s ^ String.make (q - 1) '$' in
  let n = String.length padded in
  if n < q then []
  else List.init (n - q + 1) (fun i -> String.sub padded i q)

let distinct_qgrams ~q s = List.sort_uniq String.compare (qgrams ~q s)

let substring_qgrams ~q s =
  if q <= 0 then invalid_arg "Strdist.substring_qgrams: q <= 0";
  let n = String.length s in
  if n < q then []
  else List.sort_uniq String.compare (List.init (n - q + 1) (fun i -> String.sub s i q))

let count_filter_threshold ~q ~len_a ~len_b d = max len_a len_b + q - 1 - (d * q)

(* Rarity heuristic for rarest-gram-first ordering when no frequency
   statistics are available: padding-anchored grams ("##k", "e$$") are
   shared by every value with the same first/last characters, interior
   grams only by values containing that exact substring — so fewer
   padding characters first, then lexicographic for determinism. *)
let pad_chars g = String.fold_left (fun n c -> if c = '#' || c = '$' then n + 1 else n) 0 g

let prefix_grams ?freq ~q ~d pattern =
  let grams = qgrams ~q pattern in
  let mult = Hashtbl.create 16 in
  List.iter
    (fun g -> Hashtbl.replace mult g (1 + Option.value ~default:0 (Hashtbl.find_opt mult g)))
    grams;
  let distinct = List.sort_uniq String.compare grams in
  let rarity g = match freq with Some f -> f g | None -> pad_chars g in
  let ordered =
    List.stable_sort (fun a b -> Int.compare (rarity a) (rarity b)) distinct
  in
  (* Count-filter lower bound: a string within edit distance [d] shares
     at least |qgrams pattern| - d*q gram occurrences with the pattern,
     so it can miss at most d*q of them. Selecting distinct grams until
     their pattern-multiset multiplicity sums to d*q + 1 guarantees every
     true match holds (hence is indexed under) at least one selected
     gram. *)
  let needed = (d * q) + 1 in
  let rec take acc covered = function
    | _ when covered >= needed -> List.rev acc
    | [] -> List.rev acc (* whole gram set selected: bound not reachable *)
    | g :: rest -> take (g :: acc) (covered + Hashtbl.find mult g) rest
  in
  take [] 0 ordered

let common_gram_count ~q a b =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun g -> Hashtbl.replace tbl g (1 + Option.value ~default:0 (Hashtbl.find_opt tbl g)))
    (qgrams ~q a);
  List.fold_left
    (fun acc g ->
      match Hashtbl.find_opt tbl g with
      | Some n when n > 0 ->
        Hashtbl.replace tbl g (n - 1);
        acc + 1
      | _ -> acc)
    0 (qgrams ~q b)

let passes_count_filter ~q a b d =
  let thr = count_filter_threshold ~q ~len_a:(String.length a) ~len_b:(String.length b) d in
  thr <= 0 || common_gram_count ~q a b >= thr
