module Bitkey = Unistore_util.Bitkey
module Shortcuts = Unistore_cache.Shortcuts
module Statcache = Unistore_cache.Statcache

type t = {
  id : int;
  mutable path : Bitkey.t;
  mutable splits : string array;
  mutable refs : int array array;
  mutable replicas : int list;
  store : Store.t;
  mutable write_epoch : int;
  shortcuts : Shortcuts.t;
  stat_cache : Statcache.t;
  rtt : Rtt.t;
  (* Hot-path replication state. As a booster: [hot_store] holds a
     synced copy of someone else's hot region [hot_region] (kept apart
     from [store] so region-placement invariants over [store] still
     hold), [hot_owner] is the region's owner and [hot_spread] the full
     serving set advertised in replies. As an owner: [boosts] lists the
     peers currently boosting this node's region. *)
  hot_store : Store.t;
  mutable hot_region : (string * string option) option;
  mutable hot_owner : int;
  mutable hot_spread : int list;
  mutable boosts : int list;
  (* Load accounting for the gossiped statistics: [served] counts
     request messages handled; the sampler reads the delta since its
     last visit via [served_mark]. *)
  mutable served : int;
  mutable served_mark : int;
  (* The sampler's memo: the store generation it last scanned and the
     summaries it built then (see {!Unistore_triple.Stat_sample}). *)
  mutable stat_memo : int * Statcache.summary list;
  (* [region] derived from path/splits, cached because [covers] runs on
     every routing decision; invalidated by [set_path]/[extend]. *)
  mutable region_cache : (string * string option) option;
}

(* No store has generation -1, so the first sample always scans. *)
let no_stat_memo = (-1, [])

let create ?(backend = Store.Hash) id =
  {
    id;
    path = Bitkey.empty;
    splits = [||];
    refs = [||];
    replicas = [];
    (* [name] keys the per-peer journal ([Hash] keeps none); the
       hot-store copy is cache-like and never journals. *)
    store =
      Store.create ~backend
        ?name:
          (match backend with Store.Log _ -> Some (Printf.sprintf "peer-%d" id) | Hash -> None)
        ();
    write_epoch = 0;
    shortcuts = Shortcuts.create ~capacity:128;
    stat_cache = Statcache.create ();
    rtt = Rtt.create ();
    hot_store = Store.create ();
    hot_region = None;
    hot_owner = -1;
    hot_spread = [];
    boosts = [];
    served = 0;
    served_mark = 0;
    stat_memo = no_stat_memo;
    region_cache = None;
  }

let bump_epoch t = t.write_epoch <- t.write_epoch + 1

(* One request message handled (routing or serving) — the raw signal
   behind the gossiped per-region load statistic. *)
let bump_served t = t.served <- t.served + 1

(* Requests handled since the last call — consumed by the statistics
   sampler once per gossip round. *)
let served_delta t =
  let d = t.served - t.served_mark in
  t.served_mark <- t.served;
  d

(* [hot_covers t key]: this peer boosts a hot region containing [key]
   and may answer lookups for it from [hot_store]. *)
let hot_covers t key =
  match t.hot_region with
  | Some (lo, hi) ->
    String.compare key lo >= 0
    && (match hi with None -> true | Some h -> String.compare key h < 0)
  | None -> false

(* Stop boosting: drop the synced copy and the assignment. *)
let clear_hot t =
  Store.clear t.hot_store;
  t.hot_region <- None;
  t.hot_owner <- -1;
  t.hot_spread <- []

let set_path t path splits =
  let len = Bitkey.length path in
  if Array.length splits <> len then invalid_arg "Node.set_path: splits/path length mismatch";
  let refs = Array.make len [||] in
  Array.blit t.refs 0 refs 0 (min (Array.length t.refs) len);
  t.path <- path;
  t.splits <- splits;
  t.refs <- refs;
  t.region_cache <- None

let extend t ~bit ~boundary =
  set_path t (Bitkey.append_bit t.path bit) (Array.append t.splits [| boundary |])

let refs_at t l = if l >= 0 && l < Array.length t.refs then t.refs.(l) else [||]

(* Newest first; the oldest entries fall off the end beyond [cap]. *)
let add_ref t ~level peer ~cap =
  if level >= 0 && level < Array.length t.refs && peer <> t.id then begin
    let cur = t.refs.(level) in
    if not (Array.mem peer cur) then
      let len = max 0 (min cap (Array.length cur + 1)) in
      t.refs.(level) <- Array.init len (fun i -> if i = 0 then peer else cur.(i - 1))
  end

let adopt_position t ~template ~cap =
  set_path t template.path (Array.copy template.splits);
  Array.fill t.refs 0 (Array.length t.refs) [||];
  Array.iteri (fun l refs -> Array.iter (fun r -> add_ref t ~level:l r ~cap) refs) template.refs

let remove_ref t peer =
  Array.iteri
    (fun l refs ->
      if Array.mem peer refs then
        t.refs.(l) <- Array.of_list (List.filter (fun p -> p <> peer) (Array.to_list refs)))
    t.refs

let add_replica t peer =
  if peer <> t.id && not (List.mem peer t.replicas) then t.replicas <- peer :: t.replicas

let remove_replica t peer = t.replicas <- List.filter (fun p -> p <> peer) t.replicas

let compute_region t =
  let lo = ref "" and hi = ref None in
  Array.iteri
    (fun l boundary ->
      if Bitkey.get t.path l then begin
        if String.compare boundary !lo > 0 then lo := boundary
      end
      else
        match !hi with
        | Some h when String.compare h boundary <= 0 -> ()
        | _ -> hi := Some boundary)
    t.splits;
  (!lo, !hi)

let region t =
  match t.region_cache with
  | Some r -> r
  | None ->
    let r = compute_region t in
    t.region_cache <- Some r;
    r

let covers t key =
  let lo, hi = region t in
  String.compare key lo >= 0
  && match hi with None -> true | Some h -> String.compare key h < 0

let key_side t ~level key =
  if level < 0 || level >= Array.length t.splits then invalid_arg "Node.key_side";
  String.compare key t.splits.(level) >= 0

let table_size t = Array.fold_left (fun acc refs -> acc + Array.length refs) 0 t.refs

let pp fmt t =
  Format.fprintf fmt "peer%d@%a[refs=%d,replicas=%d,items=%d]" t.id Bitkey.pp t.path (table_size t)
    (List.length t.replicas) (Store.size t.store)
