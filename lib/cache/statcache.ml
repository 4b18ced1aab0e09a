type summary = {
  attr : string;
  region_lo : string;
  peer : int;
  count : int;
  distinct : int;
  lo : string;
  hi : string;
  string_valued : bool;
  version : int;
  sampled_at : float;
  load : int;
}

let summary_bytes s =
  String.length s.attr + String.length s.region_lo + String.length s.lo + String.length s.hi + 33

type agg = {
  a_count : float;
  a_distinct : int;
  a_lo : string;
  a_hi : string;
  a_string : bool;
  a_version : int;
  a_regions : int;
}

type digest_entry = {
  d_region : string;
  d_peer : int;
  d_version : int;
  d_attrs : int;
  d_sampled_at : float;
  d_load : int;
}

let digest_entry_bytes e = String.length e.d_region + 24

(* What a sample says about one attribute in one region; the sampling
   peer, time and load live in the region's stamp. *)
type content = {
  c_attr : string;
  c_count : int;
  c_distinct : int;
  c_lo : string;
  c_hi : string;
  c_string : bool;
  c_version : int;
}

(* One region: its stamp is exactly the digest entry this cache sends
   for it ([d_attrs] = number of [contents]), so a digest allocates no
   entries, and a re-stamp that changes nothing else shares the
   sender's entry. Invariant: [stamp.d_version] is the highest content
   version, so one pulled summary always lifts a lagging stamp. *)
type region = { mutable stamp : digest_entry; mutable contents : content list (* by attr *) }

type t = {
  mutable regions : (string, region) Hashtbl.t;
  mutable order : region list;  (** the same regions, by region lower bound *)
}

(* Most peers never hear a summary, so every cache starts on this one
   shared table and gets its own on the first [merge]. Nothing may ever
   write to [empty]: [merge] swaps it out first. *)
let empty : (string, region) Hashtbl.t = Hashtbl.create 1

let create () = { regions = empty; order = [] }
let length t = List.fold_left (fun n r -> n + r.stamp.d_attrs) 0 t.order

let clear t =
  t.regions <- empty;
  t.order <- []

type merged = Kept | Resampled | News

let content_of s =
  {
    c_attr = s.attr;
    c_count = s.count;
    c_distinct = s.distinct;
    c_lo = s.lo;
    c_hi = s.hi;
    c_string = s.string_valued;
    c_version = s.version;
  }

(* Replicas of one region produce interchangeable summaries, but their
   load reports are not interchangeable: a cold replica must not erase
   the hot one's signal just by sampling later. Adopting a later stamp
   keeps a halving memory of the displaced load, so the hot-spot signal
   survives replica races yet still decays within a few rounds once the
   region actually cools down. *)
let restamp r (e : digest_entry) =
  let old = r.stamp in
  let load = if old.d_load / 2 > e.d_load then old.d_load / 2 else e.d_load in
  r.stamp <-
    (if load = e.d_load && e.d_attrs = old.d_attrs then e
     else { e with d_attrs = old.d_attrs; d_load = load })

let later (st : digest_entry) ~version ~sampled_at =
  version > st.d_version || (version = st.d_version && sampled_at > st.d_sampled_at)

let rec put_content c = function
  | [] -> [ c ]
  | x :: rest as l ->
    let k = String.compare c.c_attr x.c_attr in
    if k < 0 then c :: l else if k = 0 then c :: rest else x :: put_content c rest

let rec put_region r = function
  | [] -> [ r ]
  | x :: rest as l ->
    if String.compare r.stamp.d_region x.stamp.d_region < 0 then r :: l
    else x :: put_region r rest

let merge t s =
  let stamp attrs =
    {
      d_region = s.region_lo;
      d_peer = s.peer;
      d_version = s.version;
      d_attrs = attrs;
      d_sampled_at = s.sampled_at;
      d_load = s.load;
    }
  in
  match Hashtbl.find_opt t.regions s.region_lo with
  | None ->
    (* First write: take a private table. *)
    if t.regions == empty then t.regions <- Hashtbl.create 8;
    let r = { stamp = stamp 1; contents = [ content_of s ] } in
    Hashtbl.replace t.regions s.region_lo r;
    t.order <- put_region r t.order;
    News
  | Some r ->
    let held = List.find_opt (fun c -> String.equal c.c_attr s.attr) r.contents in
    let outcome =
      match held with
      | None -> News
      | Some c when s.version > c.c_version -> News
      | Some c when s.version = c.c_version && s.sampled_at > r.stamp.d_sampled_at -> Resampled
      | Some _ -> Kept
    in
    if outcome <> Kept then begin
      r.contents <- put_content (content_of s) r.contents;
      if Option.is_none held then r.stamp <- { r.stamp with d_attrs = r.stamp.d_attrs + 1 }
    end;
    if later r.stamp ~version:s.version ~sampled_at:s.sampled_at then
      restamp r (stamp r.stamp.d_attrs);
    outcome

let digest t = List.map (fun r -> r.stamp) t.order

let apply_digest t e =
  match Hashtbl.find_opt t.regions e.d_region with
  | None -> true
  | Some r ->
    let st = r.stamp in
    if e.d_version = st.d_version && e.d_sampled_at > st.d_sampled_at then restamp r e;
    e.d_version > st.d_version || e.d_attrs > st.d_attrs

let summary_of (st : digest_entry) c =
  {
    attr = c.c_attr;
    region_lo = st.d_region;
    peer = st.d_peer;
    count = c.c_count;
    distinct = c.c_distinct;
    lo = c.c_lo;
    hi = c.c_hi;
    string_valued = c.c_string;
    version = c.c_version;
    sampled_at = st.d_sampled_at;
    load = st.d_load;
  }

let region_summaries r = List.map (summary_of r.stamp) r.contents
let summaries t = List.concat_map region_summaries t.order

let summaries_of t regions =
  List.concat_map
    (fun lo -> match Hashtbl.find_opt t.regions lo with Some r -> region_summaries r | None -> [])
    regions

let aggregate t ~now ~half_life_ms =
  let accs : (string, agg ref) Hashtbl.t = Hashtbl.create 16 in
  (* Weights are floats, so the merge below is order-sensitive float
     addition: each attribute sums its regions in region order. *)
  List.iter
    (fun r ->
      let weight =
        if half_life_ms <= 0.0 then 1.0
        else 0.5 ** (Float.max 0.0 (now -. r.stamp.d_sampled_at) /. half_life_ms)
      in
      List.iter
        (fun c ->
          let contrib =
            {
              a_count = weight *. float_of_int c.c_count;
              a_distinct = c.c_distinct;
              a_lo = c.c_lo;
              a_hi = c.c_hi;
              a_string = c.c_string;
              a_version = c.c_version;
              a_regions = 1;
            }
          in
          match Hashtbl.find_opt accs c.c_attr with
          | None -> Hashtbl.replace accs c.c_attr (ref contrib)
          | Some acc ->
            let a = !acc in
            acc :=
              {
                a_count = a.a_count +. contrib.a_count;
                a_distinct = a.a_distinct + contrib.a_distinct;
                a_lo = (if String.compare contrib.a_lo a.a_lo < 0 then contrib.a_lo else a.a_lo);
                a_hi = (if String.compare contrib.a_hi a.a_hi > 0 then contrib.a_hi else a.a_hi);
                a_string = a.a_string || contrib.a_string;
                a_version = a.a_version + contrib.a_version;
                a_regions = a.a_regions + 1;
              })
        r.contents)
    t.order;
  Hashtbl.fold (fun a acc l -> (a, !acc) :: l) accs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let region_loads t = List.map (fun r -> (r.stamp.d_region, r.stamp.d_load)) t.order

let attr_version t a =
  List.fold_left
    (fun acc r ->
      match List.find_opt (fun c -> String.equal c.c_attr a) r.contents with
      | Some c -> acc + c.c_version
      | None -> acc)
    0 t.order

let total_version t =
  List.fold_left
    (fun acc r -> List.fold_left (fun acc c -> acc + c.c_version) acc r.contents)
    0 t.order
