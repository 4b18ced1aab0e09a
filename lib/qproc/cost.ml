module Value = Unistore_triple.Value
module Ast = Unistore_vql.Ast
module Strdist = Unistore_util.Strdist
module Keys = Unistore_triple.Keys

type access =
  | AOid of string
  | AAttrValue of string * Value.t
  | AAttrRange of string * Value.t option * Value.t option
  | AAttrAll of string
  | AAttrPrefix of string * string
  | AValue of Value.t
  | ASim of string option * string * int
  | ASubstring of string option * string
  | ATopN of string * int
  | ABroadcast

let pp_access fmt = function
  | AOid oid -> Format.fprintf fmt "oid-lookup(%s)" oid
  | AAttrValue (a, v) -> Format.fprintf fmt "av-lookup(%s=%a)" a Value.pp v
  | AAttrRange (a, lo, hi) ->
    let p = function Some v -> Format.asprintf "%a" Value.pp v | None -> "·" in
    Format.fprintf fmt "av-range(%s in [%s,%s])" a (p lo) (p hi)
  | AAttrAll a -> Format.fprintf fmt "av-scan(%s)" a
  | AAttrPrefix (a, p) -> Format.fprintf fmt "av-prefix(%s,'%s')" a p
  | AValue v -> Format.fprintf fmt "v-lookup(%a)" Value.pp v
  | ASim (a, p, d) ->
    Format.fprintf fmt "qgram-sim(%s,'%s',%d)" (Option.value ~default:"*" a) p d
  | ASubstring (a, p) ->
    Format.fprintf fmt "qgram-substr(%s,'%s')" (Option.value ~default:"*" a) p
  | ATopN (a, n) -> Format.fprintf fmt "topn-traversal(%s,%d)" a n
  | ABroadcast -> Format.fprintf fmt "flood"

(* Built on [Value.encode] rather than [pp_access]: the pretty-printer
   can render distinct values identically (e.g. the string "1" and the
   integer 1), and a cache key must never collide. *)
let access_key access =
  let b = Buffer.create 32 in
  let s = Buffer.add_string b in
  let opt = function Some a -> a | None -> "" in
  (match access with
  | AOid oid -> s "oid\000"; s oid
  | AAttrValue (a, v) -> s "av\000"; s a; s "\000"; s (Value.encode v)
  | AAttrRange (a, lo, hi) ->
    let e = function Some v -> Value.encode v | None -> "" in
    s "ar\000"; s a; s "\000"; s (e lo); s "\000"; s (e hi)
  | AAttrAll a -> s "aa\000"; s a
  | AAttrPrefix (a, p) -> s "ap\000"; s a; s "\000"; s p
  | AValue v -> s "v\000"; s (Value.encode v)
  | ASim (a, p, d) -> s "sim\000"; s (opt a); s "\000"; s p; s "\000"; s (string_of_int d)
  | ASubstring (a, p) -> s "sub\000"; s (opt a); s "\000"; s p
  | ATopN (a, n) -> s "topn\000"; s a; s "\000"; s (string_of_int n)
  | ABroadcast -> s "flood");
  Buffer.contents b

type env = {
  peers : int;
  depth : int;
  replication : int;
  expected_latency : float;
  batched_probes : bool;
  topn_budget : bool;
}

let env_of_dht (dht : Unistore_triple.Dht.t) ~replication =
  {
    peers = dht.Unistore_triple.Dht.peers;
    depth = max 1 (dht.Unistore_triple.Dht.depth ());
    replication = max 1 replication;
    expected_latency = dht.Unistore_triple.Dht.expected_latency;
    batched_probes = dht.Unistore_triple.Dht.multi_lookup <> None;
    topn_budget = dht.Unistore_triple.Dht.range_topn <> None;
  }

type estimate = { messages : float; latency : float; cardinality : float }

let pp_estimate fmt e =
  Format.fprintf fmt "msgs=%.1f latency=%.0fms card=%.1f" e.messages e.latency e.cardinality

let leaves env = Float.max 1.0 (float_of_int env.peers /. (float_of_int env.replication +. 0.5))

(* A point lookup: expected hops is about half the trie depth, plus the
   direct reply to the origin. *)
let lookup_cost env ~cardinality =
  let hops = (float_of_int env.depth /. 2.0) +. 1.0 in
  { messages = hops +. 1.0; latency = (hops +. 1.0) *. env.expected_latency; cardinality }

(* A shower range scan: O(depth) splitting messages reach each of the
   [touched] leaves, each answering directly; latency is parallel:
   depth+1 sequential message delays. *)
let shower_cost env ~fraction ~cardinality =
  let touched = Float.max 1.0 (leaves env *. Float.min 1.0 fraction) in
  {
    messages = touched +. float_of_int env.depth +. touched;
    latency = (float_of_int env.depth +. 2.0) *. env.expected_latency;
    cardinality;
  }

(* Flooding visits one replica per leaf (a message in, a reply out). *)
let flood_cost env ~cardinality =
  {
    messages = 2.0 *. leaves env;
    latency = (float_of_int env.depth +. 2.0) *. env.expected_latency;
    cardinality;
  }

(* Fraction of the key space (hence leaves) an attribute region covers:
   its share of all triples. *)
let attr_fraction stats a =
  let total = Float.max 1.0 (float_of_int stats.Qstats.total_triples) in
  Qstats.est_attr stats a /. total

(* Cost of fetching [grams] gram-key postings: parallel per-gram routed
   lookups, or — when the substrate groups probes — one multi-lookup
   splitting down the trie to ~min(grams, leaves) touched regions. *)
let gram_fetch_cost env ~grams ~cardinality =
  let grams_f = Float.max 1.0 (float_of_int grams) in
  if env.batched_probes then begin
    let regions = Float.min grams_f (leaves env) in
    {
      messages = float_of_int env.depth +. (2.0 *. regions);
      latency = (float_of_int env.depth +. 2.0) *. env.expected_latency;
      cardinality;
    }
  end
  else begin
    let per = lookup_cost env ~cardinality:0.0 in
    { messages = grams_f *. per.messages; latency = per.latency; cardinality }
  end

let estimate_access env stats access =
  match access with
  | AOid _ ->
    (* A logical tuple has total/oids triples on average. *)
    let card =
      float_of_int stats.Qstats.total_triples
      /. Float.max 1.0 (float_of_int stats.Qstats.distinct_oids)
    in
    lookup_cost env ~cardinality:(Float.max 1.0 card)
  | AAttrValue (a, _) -> lookup_cost env ~cardinality:(Float.max 0.1 (Qstats.est_eq stats a))
  | AAttrRange (a, lo, hi) ->
    let card = Qstats.est_range stats a lo hi in
    let afrac = attr_fraction stats a in
    let range_frac = card /. Float.max 1.0 (Qstats.est_attr stats a) in
    shower_cost env ~fraction:(afrac *. range_frac) ~cardinality:card
  | AAttrAll a ->
    shower_cost env ~fraction:(attr_fraction stats a) ~cardinality:(Qstats.est_attr stats a)
  | AAttrPrefix (a, _) ->
    (* Assume a prefix narrows to ~10% of the attribute's values. *)
    let card = Float.max 1.0 (Qstats.est_attr stats a *. 0.1) in
    shower_cost env ~fraction:(attr_fraction stats a *. 0.1) ~cardinality:card
  | AValue _ -> lookup_cost env ~cardinality:(Float.max 0.1 (Qstats.est_value stats))
  | ASim (a, pattern, d) ->
    (* Only a count-filter-covering prefix of the pattern's grams is
       fetched (~d*q+1 gram occurrences instead of all |p|+q-1); with
       batching the fetch is one region-splitting multi-lookup. *)
    let grams = List.length (Strdist.prefix_grams ~q:Keys.q ~d pattern) in
    gram_fetch_cost env ~grams ~cardinality:(Qstats.est_sim stats a)
  | ASubstring (a, pattern) ->
    (* Any subset of the pattern's grams is recall-complete; fetches
       cap at 3. *)
    let grams = min 3 (List.length (Strdist.substring_qgrams ~q:Keys.q pattern)) in
    gram_fetch_cost env ~grams ~cardinality:(Qstats.est_sim stats a)
  | ATopN (a, n) when env.topn_budget ->
    (* Route to the region start, then visit just enough leaves in key
       order (serial). *)
    let region_leaves = Float.max 1.0 (leaves env *. attr_fraction stats a) in
    let per_leaf = Float.max 1.0 (Qstats.est_attr stats a /. region_leaves) in
    let touched = Float.min region_leaves (Float.of_int n /. per_leaf |> Float.ceil |> Float.max 1.0) in
    let route = float_of_int env.depth /. 2.0 in
    {
      messages = route +. (2.0 *. touched);
      latency = (route +. touched +. 1.0) *. env.expected_latency;
      cardinality = Float.min (float_of_int n) (Qstats.est_attr stats a);
    }
  | ATopN (a, n) ->
    (* No budgeted traversal: fetch the whole region and truncate at the
       origin. *)
    let e = shower_cost env ~fraction:(attr_fraction stats a) ~cardinality:(Qstats.est_attr stats a) in
    { e with cardinality = Float.min (float_of_int n) e.cardinality }
  | ABroadcast ->
    (* Flooding returns whatever the residual pattern matches; assume an
       attribute's worth of data as a neutral middle ground. *)
    flood_cost env
      ~cardinality:(Float.max 1.0 (float_of_int stats.Qstats.total_triples *. 0.05))

(* A bind-join probe round over [card_left] deduplicated keys.
   Unbatched: one routed lookup (and reply) per key, in parallel.
   Batched ([env.batched_probes]): one multi-lookup splits down the trie
   — O(depth) splitting messages reach the ~min(card_left, leaves)
   touched regions, each answering the origin once — so the messages
   term stops scaling linearly with the left cardinality and the
   optimizer's bind-vs-bulk break-even moves accordingly. *)
let bindjoin_cost env ~card_left ~cardinality =
  let card_left = Float.max 1.0 card_left in
  if env.batched_probes then begin
    let regions = Float.min card_left (leaves env) in
    {
      messages = float_of_int env.depth +. (2.0 *. regions);
      latency = (float_of_int env.depth +. 2.0) *. env.expected_latency;
      cardinality;
    }
  end
  else begin
    let per = lookup_cost env ~cardinality:0.0 in
    { messages = card_left *. per.messages; latency = per.latency; cardinality }
  end

let ship_estimate env ~bytes =
  (* One direct task message; size matters for bandwidth, not count. *)
  ignore bytes;
  { messages = 1.0; latency = env.expected_latency; cardinality = 0.0 }

let objective e = e.messages +. (e.latency /. 50.0)
