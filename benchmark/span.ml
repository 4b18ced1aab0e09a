(* Bench-side spans around the calls the benchmark makes into each
   layer's public functions. A span records host CPU, simulated time,
   simulator events, network messages and minor-heap words at its start
   and end, plus the span that encloses it and the query it serves. The
   recorder is off on the untraced pass, where [record] is a plain call;
   spans stay in memory and are written out when the run ends. *)

module Json = Unistore_obs.Json

(* Host process CPU seconds (user + system). Wall time on a shared host
   spreads far more between runs than CPU time does. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Where the simulated clock, the event counter and the message counter
   of the current deployment are read. *)
type probe = { sim_ms : unit -> float; events : unit -> int; msgs : unit -> int }

let no_probe = { sim_ms = (fun () -> 0.0); events = (fun () -> 0); msgs = (fun () -> 0) }

type t = {
  id : int;
  parent : int;  (* -1 at top level *)
  query : int;  (* query sequence number, -1 outside a query *)
  name : string;
  cpu0 : float;
  mutable cpu1 : float;
  sim0 : float;
  mutable sim1 : float;
  ev0 : int;
  mutable ev1 : int;
  msgs0 : int;
  mutable msgs1 : int;
  minor0 : float;
  mutable minor1 : float;
}

let on = ref false
let probe = ref no_probe
let open_spans : t list ref = ref []
let closed : t list ref = ref []
let next_id = ref 0

let reset ~enabled =
  on := enabled;
  probe := no_probe;
  open_spans := [];
  closed := [];
  next_id := 0

let set_probe p = probe := p

let record ?(query = -1) name f =
  if not !on then f ()
  else begin
    let p = !probe in
    let s =
      {
        id = !next_id;
        parent = (match !open_spans with s :: _ -> s.id | [] -> -1);
        query;
        name;
        cpu0 = cpu_s ();
        cpu1 = 0.0;
        sim0 = p.sim_ms ();
        sim1 = 0.0;
        ev0 = p.events ();
        ev1 = 0;
        msgs0 = p.msgs ();
        msgs1 = 0;
        minor0 = Gc.minor_words ();
        minor1 = 0.0;
      }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.cpu1 <- cpu_s ();
        s.sim1 <- p.sim_ms ();
        s.ev1 <- p.events ();
        s.msgs1 <- p.msgs ();
        s.minor1 <- Gc.minor_words ();
        open_spans := List.tl !open_spans;
        closed := s :: !closed)
  end

let cpu s = s.cpu1 -. s.cpu0

(* CPU seconds of every closed span called [name]. *)
let total_cpu name =
  List.fold_left (fun acc s -> if String.equal s.name name then acc +. cpu s else acc) 0.0 !closed

(* CPU covered by each span's direct children, keyed by parent id. *)
let children_cpu all =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun c ->
      if c.parent >= 0 then
        Hashtbl.replace tbl c.parent
          (cpu c +. Option.value ~default:0.0 (Hashtbl.find_opt tbl c.parent)))
    all;
  tbl

(* Self time: the span's CPU minus what its direct children cover. *)
let to_json children s =
  let covered = Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", Json.Int s.parent);
      ("query", Json.Int s.query);
      ("name", Json.Str s.name);
      ("cpu_s", Json.Float (cpu s));
      ("self_cpu_s", Json.Float (cpu s -. covered));
      ("sim_start_ms", Json.Float s.sim0);
      ("sim_end_ms", Json.Float s.sim1);
      ("events", Json.Int (s.ev1 - s.ev0));
      ("msgs", Json.Int (s.msgs1 - s.msgs0));
      ("minor_words", Json.Float (s.minor1 -. s.minor0));
    ]

(* One JSON object per line, in start order. *)
let write ~path =
  let all = !closed in
  let children = children_cpu all in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Json.to_string ~minify:true (to_json children s));
      output_char oc '\n')
    (List.sort (fun a b -> compare a.id b.id) all);
  close_out oc
