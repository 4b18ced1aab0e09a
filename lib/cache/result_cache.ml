module Metrics = Unistore_obs.Metrics

type 'a entry = { value : 'a; version : int; stored_at : float }

(* The four counter names, built once per cache: a find runs once per
   bind-join probe key. *)
type counters = { hit : string; miss : string; stale_version : string; stale_ttl : string }

type 'a t = {
  counters : counters;
  mutable metrics : Metrics.t option;
  ttl_ms : float;
  lru : 'a entry Lru.t;
}

let create ?(name = "cache.result") ?metrics ~capacity ~ttl_ms () =
  let counter what = name ^ "." ^ what in
  let counters =
    {
      hit = counter "hit";
      miss = counter "miss";
      stale_version = counter "stale_version";
      stale_ttl = counter "stale_ttl";
    }
  in
  { counters; metrics; ttl_ms; lru = Lru.create ~capacity }

let set_metrics t m = t.metrics <- m
let length t = Lru.length t.lru
let capacity t = Lru.capacity t.lru

let bump t counter = match t.metrics with Some m -> Metrics.incr m counter | None -> ()

let find t ~key ~version ~now =
  match Lru.find t.lru key with
  | None ->
    bump t t.counters.miss;
    None
  | Some e when e.version <> version ->
    Lru.remove t.lru key;
    bump t t.counters.stale_version;
    None
  | Some e when now -. e.stored_at > t.ttl_ms ->
    Lru.remove t.lru key;
    bump t t.counters.stale_ttl;
    None
  | Some e ->
    bump t t.counters.hit;
    Some e.value

let mem t ~key ~version ~now =
  match Lru.peek t.lru key with
  | Some e -> e.version = version && now -. e.stored_at <= t.ttl_ms
  | None -> false

let put t ~key ~version ~now v =
  Lru.put t.lru key { value = v; version; stored_at = now }

let invalidate t ~key = Lru.remove t.lru key
let clear t = Lru.clear t.lru
