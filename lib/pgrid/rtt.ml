(* Per-peer request-latency estimation feeding adaptive retry
   deadlines (Jacobson/Karels-style: EWMA mean plus a deviation term),
   in the spirit of swift-libp2p's PeerLatencyTracker. Each node keeps
   one tracker and observes the end-to-end latency of every completed
   operation, keyed three ways: by responding peer (the sharpest
   signal, available once a shortcut pins a responder), by operation
   class ("lookup", "insert", "range", ...; fan-out classes have very
   different latency profiles), and globally. Deadline lookup falls
   back peer -> class -> global -> configured fixed timeout, so a cold
   tracker behaves exactly like the fixed-timeout code it replaces.

   Only successful completions are observed (Karn's algorithm: samples
   from retried exchanges are ambiguous), so the estimate cannot be
   dragged up by its own give-ups. *)

(* All-float, so the record is stored flat: no boxed fields. [n] is a
   sample count kept as a float for that reason. *)
type entry = { mutable mean : float; mutable dev : float; mutable n : float }

(* A peer that never hears a reply to its own request needs no per-peer
   table, so it starts as [no_peers], shared and never written, and a
   private one is allocated on the first per-peer observation. Classes
   are few (at most one per operation kind), so they live in an
   association list. *)
type t = {
  mutable per_peer : (int, entry) Hashtbl.t;
  mutable per_class : (string * entry) list;
  global : entry;
}

let alpha = 0.125 (* EWMA gain for the mean *)
let beta = 0.25 (* EWMA gain for the mean deviation *)
let no_peers : (int, entry) Hashtbl.t = Hashtbl.create 1
let fresh () = { mean = 0.0; dev = 0.0; n = 0.0 }
let create () = { per_peer = no_peers; per_class = []; global = fresh () }

let update (e : entry) sample =
  if Float.equal e.n 0.0 then begin
    e.mean <- sample;
    e.dev <- sample /. 2.0
  end
  else begin
    let err = sample -. e.mean in
    e.mean <- e.mean +. (alpha *. err);
    e.dev <- e.dev +. (beta *. (Float.abs err -. e.dev))
  end;
  e.n <- e.n +. 1.0

let peer_entry t peer =
  if t.per_peer == no_peers then t.per_peer <- Hashtbl.create 16;
  match Hashtbl.find_opt t.per_peer peer with
  | Some e -> e
  | None ->
    let e = fresh () in
    Hashtbl.replace t.per_peer peer e;
    e

let find_class t cls =
  List.find_map (fun (c, e) -> if String.equal c cls then Some e else None) t.per_class

let class_entry t cls =
  match find_class t cls with
  | Some e -> e
  | None ->
    let e = fresh () in
    t.per_class <- (cls, e) :: t.per_class;
    e

(* [observe t ?peer ~cls sample] folds one completed-operation latency
   (simulated ms) into the peer, class and global estimates. *)
let observe t ?peer ~cls sample =
  if sample >= 0.0 then begin
    (match peer with Some p -> update (peer_entry t p) sample | None -> ());
    update (class_entry t cls) sample;
    update t.global sample
  end

let forget_peer t peer = if t.per_peer != no_peers then Hashtbl.remove t.per_peer peer

(* An entry predicts once it has a couple of samples; mean + 4 dev is
   the classic RTO, and the extra 2x headroom keeps rare-but-legitimate
   stragglers (deep fan-outs, lognormal WAN tails) from triggering
   spurious retries that would perturb fault-free runs. *)
let min_samples = 2
let headroom = 2.0

let predict e =
  if e.n >= float_of_int min_samples then Some ((e.mean +. (4.0 *. e.dev)) *. headroom) else None

(* [deadline t ?peer ~cls ~fallback ~min_ms ~max_ms] is the adaptive
   retry deadline: the sharpest available estimate clamped into
   [min_ms, max_ms], or [fallback] (the fixed configured timeout) when
   the tracker is cold. *)
let deadline t ?peer ~cls ~fallback ~min_ms ~max_ms () =
  let est =
    match Option.bind peer (fun p -> Option.bind (Hashtbl.find_opt t.per_peer p) predict) with
    | Some _ as s -> s
    | None -> (
      match Option.bind (find_class t cls) predict with
      | Some _ as s -> s
      | None -> predict t.global)
  in
  match est with
  | Some d -> Float.max min_ms (Float.min max_ms d)
  | None -> fallback

let samples t = int_of_float t.global.n
let mean t = if Float.equal t.global.n 0.0 then Float.nan else t.global.mean
