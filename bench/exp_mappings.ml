(* E12: schema heterogeneity via mapping triples.

   Paper (§2): "we allow to store triples representing a simple kind of
   schema mappings in order to overcome schema heterogeneities. This
   additional metadata can be queried explicitly by the user — or even
   automatically by the system to retrieve relevant data without needing
   the user to interact."

   Two communities publish the same kind of data under different
   attribute names and entity ids (plain vs. "dblp:"-prefixed). We
   measure query recall with and without automatic mapping expansion,
   plus the expansion's message cost, each arm on a fresh deployment.
   The verdict is computed from the rows: on every query the expanded
   answer must hold every plain row and strictly more rows; the run
   exits 1 otherwise. *)

module Rng = Unistore_util.Rng
module Engine = Unistore_qproc.Engine
module Binding = Unistore_qproc.Binding
module Publications = Unistore_workload.Publications

let mapped_attrs =
  [
    "name"; "age"; "num_of_pubs"; "has_published"; "title"; "year"; "published_in"; "series";
    "confname";
  ]

(* Both communities loaded, the mappings published: a fresh deployment,
   its caches cold. *)
let deploy () =
  let rng = Rng.create 131 in
  let ds1 = Publications.generate rng { Publications.default_params with n_authors = 15 } in
  let ds2 =
    Publications.generate rng
      { Publications.default_params with n_authors = 15; namespace = "dblp" }
  in
  let store =
    Unistore.create
      ~sample_keys:(Publications.sample_keys ds1 @ Publications.sample_keys ds2)
      { Unistore.default_config with peers = 64; seed = 13 }
  in
  ignore (Unistore.load store ds1.Publications.tuples);
  ignore (Unistore.load store ds2.Publications.tuples);
  Unistore.set_stats_of_triples store (ds1.Publications.triples @ ds2.Publications.triples);
  List.iter (fun a -> ignore (Unistore.add_mapping store a ("dblp:" ^ a))) mapped_attrs;
  Unistore.settle store;
  store

let run () =
  Common.section "E12: schema mappings (instance, schema and metadata levels)"
    "schema-mapping triples \"can be queried explicitly by the user — or even \
     automatically by the system\"";
  let queries =
    [
      ("ages 30-40", "SELECT ?a, ?v WHERE { (?a,'age',?v) FILTER ?v >= 30 AND ?v < 40 }");
      ( "VLDB authors",
        "SELECT ?n WHERE { (?a,'name',?n) (?a,'has_published',?t) (?p,'title',?t) \
         (?p,'published_in',?cn) FILTER prefix(?cn,'VLDB') }" );
      ("2004+ titles", "SELECT ?t WHERE { (?p,'title',?t) (?p,'year',?y) FILTER ?y >= 2004 }");
    ]
  in
  (* Each arm of each query runs first on its own deployment, so neither
     column reuses what the other left in the caches. *)
  let answers =
    List.map
      (fun (name, src) ->
        let cold expand_mappings = Common.run_query_exn (deploy ()) ~origin:2 ~expand_mappings src in
        (name, cold false, cold true))
      queries
  in
  Common.print_table
    [ "query"; "rows"; "msgs"; "rows+mappings"; "msgs+mappings" ]
    (List.map
       (fun (name, (plain : Engine.report), (expanded : Engine.report)) ->
         [
           name;
           Common.i (List.length plain.rows);
           Common.i plain.messages;
           Common.i (List.length expanded.rows);
           Common.i expanded.messages;
         ])
       answers);
  let short =
    List.filter_map
      (fun (name, (plain : Engine.report), (expanded : Engine.report)) ->
        let prints (r : Engine.report) = List.map Binding.fingerprint r.rows in
        let covers = List.for_all (fun f -> List.mem f (prints expanded)) (prints plain) in
        if covers && List.length expanded.rows > List.length plain.rows then None else Some name)
      answers
  in
  (* Metadata level: the correspondences themselves are queryable. *)
  let meta =
    Common.run_query_exn (deploy ()) ~origin:0 "SELECT ?m, ?to WHERE { (?m,'sys:maps_to',?to) }"
  in
  Printf.printf "\nmapping triples stored (queried at the metadata level): %d\n"
    (List.length meta.Engine.rows);
  Printf.printf "verdict: %s\n"
    (if short = [] then
       "on every query the expanded answer holds every plain row and more: queries written \
        against one schema retrieve the other community's data too, reproduced"
     else "NOT reproduced: expansion loses a row or adds none on " ^ String.concat ", " short);
  if short <> [] then exit 1
