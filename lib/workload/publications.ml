module Rng = Unistore_util.Rng
module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple
module Tstore = Unistore_triple.Tstore

type tuple = string * (string * Value.t) list

type dataset = {
  tuples : tuple list;
  triples : Triple.t list;
  authors : int;
  publications : int;
  conferences : int;
  series_pool : string list;
}

type params = {
  n_authors : int;
  pubs_per_author : int;
  n_conferences : int;
  typo_rate : float;
  namespace : string;
}

let default_params =
  { n_authors = 20; pubs_per_author = 3; n_conferences = 6; typo_rate = 0.0; namespace = "" }

let base_series = [ "ICDE"; "VLDB"; "SIGMOD"; "EDBT"; "CIDR"; "PODS"; "P2P"; "NETDB" ]

let attr ns a = if ns = "" then a else ns ^ ":" ^ a

let generate rng (p : params) =
  let rng = Rng.split rng in
  let ns = p.namespace in
  let series_pool =
    List.filteri (fun i _ -> i < max 1 (min p.n_conferences (List.length base_series))) base_series
  in
  let maybe_typo s = if Rng.bool rng ~p:p.typo_rate then Namegen.typo rng s else s in
  (* Conferences *)
  let conferences =
    List.init p.n_conferences (fun i ->
        let series = List.nth series_pool (i mod List.length series_pool) in
        let year = 1998 + Rng.int rng 10 in
        let oid = attr ns (Printf.sprintf "c%03d" i) in
        let confname = maybe_typo (Printf.sprintf "%s %d" series year) in
        ( oid,
          [
            (attr ns "confname", Value.S confname);
            (attr ns "series", Value.S (maybe_typo series));
            (attr ns "year", Value.I year);
          ] ))
  in
  let confname_of (_, fields) =
    match List.assoc (attr ns "confname") fields with Value.S s -> s | _ -> assert false
  in
  (* Publications *)
  let n_pubs = max 1 (p.n_authors * p.pubs_per_author) in
  let publications =
    List.init n_pubs (fun i ->
        let conf = List.nth conferences (Rng.int rng (List.length conferences)) in
        let year =
          match List.assoc (attr ns "year") (snd conf) with Value.I y -> y | _ -> 2000
        in
        let oid = attr ns (Printf.sprintf "p%04d" i) in
        ( oid,
          [
            (attr ns "title", Value.S (Namegen.title rng ~words:(3 + Rng.int rng 3)));
            (attr ns "year", Value.I year);
            (attr ns "published_in", Value.S (confname_of conf));
            (attr ns "classified_in", Value.S (Rng.pick rng [| "databases"; "networks"; "ir"; "systems" |]));
          ] ))
  in
  let title_of (_, fields) =
    match List.assoc (attr ns "title") fields with Value.S s -> s | _ -> assert false
  in
  (* Authors *)
  let authors =
    List.init p.n_authors (fun i ->
        let oid = attr ns (Printf.sprintf "a%03d" i) in
        let name = Namegen.person rng in
        let my_pubs =
          Rng.sample rng
            (1 + Rng.int rng (max 1 (2 * p.pubs_per_author)))
            publications
        in
        let base =
          [
            (attr ns "name", Value.S name);
            (attr ns "age", Value.I (24 + Rng.int rng 45));
            (attr ns "num_of_pubs", Value.I (List.length my_pubs));
            (attr ns "email", Value.S (String.lowercase_ascii (String.map (fun c -> if c = ' ' then '.' else c) name) ^ "@example.org"));
            (attr ns "office", Value.S (Printf.sprintf "Z%d%02d" (1 + Rng.int rng 4) (Rng.int rng 60)));
            (attr ns "phone", Value.I (100000 + Rng.int rng 899999));
            (attr ns "interested_in", Value.S (Rng.pick rng [| "databases"; "networks"; "ir"; "systems" |]));
          ]
        in
        let pubs = List.map (fun pb -> (attr ns "has_published", Value.S (title_of pb))) my_pubs in
        let friends =
          if i = 0 then []
          else
            [ (attr ns "has_friend", Value.S (attr ns (Printf.sprintf "a%03d" (Rng.int rng i)))) ]
        in
        (oid, base @ pubs @ friends))
  in
  let tuples = authors @ publications @ conferences in
  let triples =
    List.concat_map (fun (oid, fields) -> Triple.tuple_to_triples ~oid fields) tuples
  in
  {
    tuples;
    triples;
    authors = List.length authors;
    publications = List.length publications;
    conferences = List.length conferences;
    series_pool;
  }

(* The q-gram index dominates storage volume for string-heavy data;
   the trie must be shaped for it too. *)
let sample_keys d = List.concat_map (Tstore.index_keys ~qgrams:true) d.triples
