(** Synthetic contacts-and-publications data following the paper's Fig. 3
    schema: Person (name, age, num_of_pubs, email, office, phone,
    has_published, has_friend, interested_in), Publication (title, year,
    published_in, classified_in), Conference (confname, series, year,
    belongs_to). *)

module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple

type tuple = string * (string * Value.t) list

type dataset = {
  tuples : tuple list;
  triples : Triple.t list;
  authors : int;
  publications : int;
  conferences : int;
  series_pool : string list;  (** conference series names (e.g. "ICDE") *)
}

type params = {
  n_authors : int;
  pubs_per_author : int;  (** mean; actual counts vary *)
  n_conferences : int;
  typo_rate : float;  (** probability a confname/series carries one typo *)
  namespace : string;
      (** attribute and OID prefix, e.g. "" or "dblp": datasets in two
          namespaces share no attribute and no entity *)
}

val default_params : params

(** The canonical conference series names the generator draws from. *)
val base_series : string list

val generate : Unistore_util.Rng.t -> params -> dataset

(** The encoded index keys of every triple in the dataset (OID, A#v, v
    families) — the sample fed to the load-aware overlay constructor. *)
val sample_keys : dataset -> string list
