module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple

type attr_stats = {
  count : int;
  distinct : int;
  lo : Value.t option;
  hi : Value.t option;
  string_valued : bool;
}

type t = { total_triples : int; distinct_oids : int; attrs : (string * attr_stats) list }

let empty = { total_triples = 0; distinct_oids = 0; attrs = [] }

let attr t a = List.assoc_opt a t.attrs

let pp fmt t =
  Format.fprintf fmt "@[<v>stats: %d triples, %d oids@," t.total_triples t.distinct_oids;
  List.iter
    (fun (a, s) ->
      Format.fprintf fmt "  %s: n=%d distinct=%d string=%b@," a s.count s.distinct s.string_valued)
    t.attrs;
  Format.fprintf fmt "@]"

let of_triples ts =
  let oids = Hashtbl.create 64 in
  let per_attr : (string, Value.t list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (tr : Triple.t) ->
      Hashtbl.replace oids tr.Triple.oid ();
      match Hashtbl.find_opt per_attr tr.Triple.attr with
      | Some l -> l := tr.Triple.value :: !l
      | None -> Hashtbl.replace per_attr tr.Triple.attr (ref [ tr.Triple.value ]))
    ts;
  let attrs =
    Hashtbl.fold
      (fun a values acc ->
        let vs = !values in
        let sorted = List.sort_uniq Value.compare vs in
        let string_valued =
          List.exists (fun v -> Option.is_some (Value.as_string v)) sorted
        in
        let lo = match sorted with [] -> None | v :: _ -> Some v in
        let hi = match List.rev sorted with [] -> None | v :: _ -> Some v in
        (a, { count = List.length vs; distinct = List.length sorted; lo; hi; string_valued })
        :: acc)
      per_attr []
    |> List.sort compare
  in
  { total_triples = List.length ts; distinct_oids = Hashtbl.length oids; attrs }

module Statcache = Unistore_cache.Statcache

let of_summaries (per_attr : (string * Statcache.agg) list) =
  let attrs =
    List.filter_map
      (fun (a, (g : Statcache.agg)) ->
        let count = int_of_float (Float.ceil g.Statcache.a_count) in
        if count <= 0 then None
        else
          Some
            ( a,
              {
                count;
                distinct = min g.Statcache.a_distinct count;
                lo = Value.decode g.Statcache.a_lo;
                hi = Value.decode g.Statcache.a_hi;
                string_valued = g.Statcache.a_string;
              } ))
      per_attr
  in
  let total_triples = List.fold_left (fun acc (_, s) -> acc + s.count) 0 attrs in
  (* No summary counts objects, only (attribute, value) occurrences; use
     the largest per-attribute count as the OID estimate — exact when
     each object carries at most one triple per attribute, a lower bound
     otherwise. *)
  let distinct_oids = List.fold_left (fun acc (_, s) -> max acc s.count) 0 attrs in
  { total_triples; distinct_oids; attrs }

(* ------------------------------------------------------------------ *)
(* Estimators                                                          *)

let est_eq t a =
  match attr t a with
  | None -> 0.0
  | Some s -> float_of_int s.count /. float_of_int (max 1 s.distinct)

let numeric v = Value.to_float v

let est_range t a lo hi =
  match attr t a with
  | None -> 0.0
  | Some s -> (
    let total = float_of_int s.count in
    match (s.lo, s.hi) with
    | Some dlo, Some dhi -> (
      match (numeric dlo, numeric dhi) with
      | Some nlo, Some nhi when nhi > nlo ->
        let span = nhi -. nlo in
        let qlo = match Option.bind lo numeric with Some x -> Float.max x nlo | None -> nlo in
        let qhi = match Option.bind hi numeric with Some x -> Float.min x nhi | None -> nhi in
        if qhi < qlo then 0.0 else total *. ((qhi -. qlo) /. span) |> Float.max 1.0
      | _ ->
        (* Non-numeric domain: assume the range covers half the values
           per open bound. *)
        let frac = match (lo, hi) with Some _, Some _ -> 0.25 | None, None -> 1.0 | _ -> 0.5 in
        Float.max 1.0 (total *. frac))
    | _ -> total)

let est_attr t a = match attr t a with None -> 0.0 | Some s -> float_of_int s.count

let est_value t =
  (* A value picked at random matches count/distinct triples on its own
     attribute, summed over attributes that could carry it: approximate
     with global triples / global distinct values. *)
  let total_distinct =
    List.fold_left (fun acc (_, s) -> acc + s.distinct) 0 t.attrs |> max 1
  in
  float_of_int t.total_triples /. float_of_int total_distinct

let est_sim t a =
  match a with
  | Some name -> (
    match attr t name with
    | None -> 0.0
    | Some s -> Float.max 1.0 (float_of_int s.count /. float_of_int (max 1 s.distinct) *. 2.0))
  | None -> Float.max 1.0 (est_value t *. 2.0)
