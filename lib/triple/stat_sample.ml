module Node = Unistore_pgrid.Node
module Store = Unistore_pgrid.Store
module Statcache = Unistore_cache.Statcache

(* An A#v index key is "A\000" ^ attr ^ "\000" ^ encoded-value. *)
let av_prefix = "A\000"

(* [key] starts with [av_prefix]; split off a non-empty attribute. *)
let parse_av_key key =
  match String.index_from_opt key 2 '\000' with
  | Some sep when sep > 2 ->
    Some (String.sub key 2 (sep - 2), String.sub key (sep + 1) (String.length key - sep - 1))
  | _ -> None

type acc = {
  mutable count : int;
  distinct : (string, unit) Hashtbl.t;
  mutable lo : string;
  mutable hi : string;
  mutable string_valued : bool;
}

(* The content-only pass over the store's A#v slice: one summary per
   attribute, sorted by attribute. Its four stamps are placeholders
   that [of_node] overwrites on every call. *)
let scan (nd : Node.t) =
  let per_attr : (string, acc) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (i : Store.item) ->
      match parse_av_key i.Store.key with
      | None -> ()
      | Some (attr, enc) ->
        let a =
          match Hashtbl.find_opt per_attr attr with
          | Some a -> a
          | None ->
            let a =
              { count = 0; distinct = Hashtbl.create 8; lo = enc; hi = enc; string_valued = false }
            in
            Hashtbl.replace per_attr attr a;
            a
        in
        a.count <- a.count + 1;
        Hashtbl.replace a.distinct enc ();
        if String.compare enc a.lo < 0 then a.lo <- enc;
        if String.compare enc a.hi > 0 then a.hi <- enc;
        if (not a.string_valued)
           && (match Value.decode enc with Some v -> Option.is_some (Value.as_string v) | None -> false)
        then a.string_valued <- true)
    (Store.with_prefix nd.Node.store av_prefix);
  Hashtbl.fold
    (fun attr a l ->
      {
        Statcache.attr;
        region_lo = "";
        peer = nd.Node.id;
        count = a.count;
        distinct = Hashtbl.length a.distinct;
        lo = a.lo;
        hi = a.hi;
        string_valued = a.string_valued;
        version = 0;
        sampled_at = 0.0;
        load = 0;
      }
      :: l)
    per_attr []
  |> List.sort (fun (a : Statcache.summary) b -> String.compare a.attr b.attr)

let of_node ~now (nd : Node.t) =
  let gen = Store.generation nd.Node.store in
  let content =
    match nd.Node.stat_memo with
    | g, content when g = gen -> content
    | _ ->
      let content = scan nd in
      nd.Node.stat_memo <- (gen, content);
      content
  in
  let region_lo, _ = Node.region nd in
  let version = nd.Node.write_epoch in
  (* One sample per round per node: every summary of this node carries
     the same served-request delta (consumers take the max per region,
     not the sum). *)
  let load = Node.served_delta nd in
  List.map (fun (s : Statcache.summary) -> { s with region_lo; version; sampled_at = now; load }) content
