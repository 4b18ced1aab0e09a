module Trace = Unistore_sim.Trace
module Metrics = Unistore_obs.Metrics
module Det = Unistore_util.Det
module D = Diagnostic

type reply_rule = { reply : string; requests : string list; multi : bool }

type rules = {
  request_kinds : string list;
  replies : reply_rule list;
  known_kinds : string list;
}

let pgrid_rules =
  {
    request_kinds = [ "insert"; "update"; "lookup"; "range"; "probe" ];
    replies =
      [
        { reply = "found"; requests = [ "insert"; "update"; "lookup" ]; multi = false };
        { reply = "multi-found"; requests = [ "insert-batch"; "multi-lookup" ]; multi = true };
        { reply = "range-hit"; requests = [ "range"; "probe" ]; multi = true };
      ];
    known_kinds = Protocol.kinds Protocol.pgrid;
  }

let chord_rules =
  {
    request_kinds = [ "put"; "get"; "del"; "bcast" ];
    replies =
      [
        { reply = "got"; requests = [ "put"; "del"; "get" ]; multi = false };
        { reply = "bcast-hit"; requests = [ "bcast" ]; multi = true };
      ];
    known_kinds = Protocol.kinds Protocol.chord;
  }

(* Per-correlation-id census: corr -> kind -> event count. *)
let census events =
  let tbl : (int, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.corr >= 0 then begin
        let kinds =
          match Hashtbl.find_opt tbl e.Trace.corr with
          | Some k -> k
          | None ->
            let k = Hashtbl.create 4 in
            Hashtbl.replace tbl e.Trace.corr k;
            k
        in
        Hashtbl.replace kinds e.Trace.kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt kinds e.Trace.kind))
      end)
    events;
  tbl

let check_replies rules tbl =
  let ds = ref [] in
  (* Diagnostics carry no spans, so report order IS corr order: iterate
     the census sorted, not in hash-bucket order. *)
  Det.sorted_iter ~cmp:Int.compare
    (fun corr kinds ->
      List.iter
        (fun r ->
          match Hashtbl.find_opt kinds r.reply with
          | None -> ()
          | Some nreplies ->
            let nrequests =
              List.fold_left
                (fun acc k -> acc + Option.value ~default:0 (Hashtbl.find_opt kinds k))
                0 r.requests
            in
            if nrequests = 0 then
              ds :=
                D.makef ~severity:D.Error ~code:"orphan-reply"
                  "request id %d: %d '%s' reply(ies) with no matching request (%s)" corr nreplies
                  r.reply
                  (String.concat "/" r.requests)
                :: !ds
            else if (not r.multi) && nreplies > nrequests then
              ds :=
                D.makef ~severity:D.Error ~code:"multi-reply"
                  "request id %d: %d '%s' replies for %d request message(s)" corr nreplies r.reply
                  nrequests
                :: !ds)
        rules.replies)
    tbl;
  !ds

(* A request's [fault.retry] markers split its events into attempts: a
   retry may legitimately re-walk the route of the attempt it replaces,
   so visits are counted per attempt. *)
let check_loops ~allowed_revisits rules events =
  let attempts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let visits : (int * int * string * int, int) Hashtbl.t = Hashtbl.create 256 in
  let reported = Hashtbl.create 16 in
  let ds = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.corr < 0 then ()
      else if String.equal e.Trace.kind "fault.retry" then
        Hashtbl.replace attempts e.Trace.corr
          (1 + Option.value ~default:0 (Hashtbl.find_opt attempts e.Trace.corr))
      else if List.mem e.Trace.kind rules.request_kinds then begin
        let attempt = Option.value ~default:0 (Hashtbl.find_opt attempts e.Trace.corr) in
        let key = (e.Trace.corr, attempt, e.Trace.kind, e.Trace.dst) in
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt visits key) in
        Hashtbl.replace visits key n;
        if n > 1 + allowed_revisits && not (Hashtbl.mem reported key) then begin
          Hashtbl.replace reported key ();
          ds :=
            D.makef ~severity:D.Error ~code:"routing-loop"
              ~hint:"greedy routing must not revisit a peer within one attempt; a re-send \
                     that is not preceded by a fault.retry marker counts as the same attempt"
              "request id %d: '%s' visited peer %d %d times in attempt %d" e.Trace.corr
              e.Trace.kind e.Trace.dst n attempt
            :: !ds
        end
      end)
    events;
  List.rev !ds

let check_clocks events =
  let rec go prev count first = function
    | [] -> (count, first)
    | (e : Trace.event) :: rest ->
      if e.Trace.time < prev then
        go prev (count + 1) (if first = None then Some (e.Trace.time, prev) else first) rest
      else go e.Trace.time count first rest
  in
  match go neg_infinity 0 None events with
  | 0, _ -> []
  | n, Some (t, prev) ->
    [
      D.makef ~severity:D.Error ~code:"clock-regression"
        "%d event(s) recorded out of time order (first: %.3f after %.3f)" n t prev;
    ]
  | _, None -> []

let check_conservation metrics (tr : Trace.t) =
  let ds = ref [] in
  (* Marker events ([fault.*], [queue.*]) are recorded by the injection
     driver, the partial-result path and the service queue, not by
     [Net.send] — message conservation must count real sends only. *)
  let sends = List.filter (fun e -> not (Trace.is_marker e)) (Trace.events tr) in
  let total = Metrics.counter metrics "net.sent" in
  if total <> List.length sends then
    ds :=
      D.makef ~severity:D.Error ~code:"conservation"
        "trace has %d send events but metrics counted %d sends" (List.length sends) total
      :: !ds;
  let by_kind =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (e : Trace.event) ->
        let c, b = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl e.Trace.kind) in
        Hashtbl.replace tbl e.Trace.kind (c + 1, b + e.Trace.bytes))
      sends;
    Hashtbl.fold (fun k (c, b) acc -> (k, c, b) :: acc) tbl []
    |> List.sort (fun (ka, a, _) (kb, b, _) ->
           match Int.compare b a with 0 -> String.compare ka kb | c -> c)
  in
  List.iter
    (fun (kind, count, _bytes) ->
      let counted = Metrics.counter metrics ("net.sent." ^ kind) in
      if counted <> count then
        ds :=
          D.makef ~severity:D.Error ~code:"conservation"
            "trace has %d '%s' events but metrics counted %d" count kind counted
          :: !ds)
    by_kind;
  (* Kinds the metrics saw but the trace did not. *)
  List.iter
    (fun (name, v) ->
      match String.index_opt name '.' with
      | Some _
        when String.length name > 9
             && String.sub name 0 9 = "net.sent."
             && v > 0
             && not (List.exists (fun (k, _, _) -> "net.sent." ^ k = name) by_kind) ->
        ds :=
          D.makef ~severity:D.Error ~code:"conservation"
            "metrics counted %d '%s' sends absent from the trace" v
            (String.sub name 9 (String.length name - 9))
          :: !ds
      | _ -> ())
    (Metrics.counters metrics);
  List.rev !ds

(* Every request that died against a crashed peer must be visibly
   handled: a later same-correlation request (a retry or failover
   resend), a later same-correlation reply (another replica answered),
   or an explicit [fault.partial] marker (the query finished degraded).
   A query that silently swallows the loss — no retry, no marker — is
   exactly the wedge/recall bug class churn testing exists to catch. *)
let check_fault_response rules events =
  let crashed = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      if String.equal e.Trace.kind "fault.crash" then Hashtbl.replace crashed e.Trace.src ())
    events;
  if Hashtbl.length crashed = 0 then []
  else begin
    let reply_kinds = List.map (fun r -> r.reply) rules.replies in
    let ds = ref [] in
    let reported = Hashtbl.create 16 in
    let rec scan = function
      | [] -> ()
      | (e : Trace.event) :: rest ->
        (if
           e.Trace.corr >= 0
           && e.Trace.outcome = Trace.To_dead
           && List.mem e.Trace.kind rules.request_kinds
           && Hashtbl.mem crashed e.Trace.dst
           && not (Hashtbl.mem reported e.Trace.corr)
         then
           let handled =
             List.exists
               (fun (f : Trace.event) ->
                 f.Trace.corr = e.Trace.corr
                 && (List.mem f.Trace.kind rules.request_kinds
                    || List.mem f.Trace.kind reply_kinds
                    || String.equal f.Trace.kind "fault.partial"))
               rest
           in
           if not handled then begin
             Hashtbl.replace reported e.Trace.corr ();
             ds :=
               D.makef ~severity:D.Error ~code:"unhandled-crash"
                 ~hint:
                   "after a crash eats a request, the query must retry, fail over, or mark \
                    itself partial"
                 "request id %d: '%s' to crashed peer %d at %.3f, with no later retry, reply, \
                  or partial-result marker"
                 e.Trace.corr e.Trace.kind e.Trace.dst e.Trace.time
               :: !ds
           end);
        scan rest
    in
    scan events;
    List.rev !ds
  end

(* Any trace kind outside the static {!Protocol} table (modulo marker
   namespaces: [fault.*], [queue.*]) means a message was added to the
   code without a table entry — the runtime side of keeping the table
   honest. *)
let check_known_kinds rules events =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      if (not (Trace.is_marker e)) && not (List.mem e.Trace.kind rules.known_kinds) then begin
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen e.Trace.kind) in
        Hashtbl.replace seen e.Trace.kind n
      end)
    events;
  Det.sorted_bindings ~cmp:String.compare seen
  |> List.map (fun (kind, n) ->
         D.makef ~severity:D.Error ~code:"unknown-kind"
           ~hint:"add the message to the Protocol table (lib/analysis/protocol.ml) so srclint \
                  and tracelint both know it"
           "%d event(s) of kind '%s' not in the static protocol table" n kind)

let check_in_flight (tr : Trace.t) =
  let _, _, _, in_flight = Trace.outcome_counts tr in
  if in_flight = 0 then []
  else
    [
      D.makef ~severity:D.Info ~code:"in-flight"
        "%d event(s) still unresolved at the end of the run" in_flight;
    ]

let lint ?(allowed_revisits = 0) ?metrics ~rules tr =
  let events = Trace.events tr in
  let tbl = census events in
  let conservation = match metrics with Some m -> check_conservation m tr | None -> [] in
  Diagnostic.sort
    (check_clocks events @ check_replies rules tbl
    @ check_loops ~allowed_revisits rules events
    @ conservation
    @ check_fault_response rules events
    @ check_known_kinds rules events
    @ check_in_flight tr)

(* ------------------------------------------------------------------ *)
(* Cache staleness: monotone reads                                     *)

type read_obs = { origin : int; key : string; item_id : string; version : int }

let monotone_reads obs =
  (* Highest version each origin has observed per (key, item). *)
  let best : (int * string * string, int) Hashtbl.t = Hashtbl.create 64 in
  let diags = ref [] in
  List.iter
    (fun (r : read_obs) ->
      let k = (r.origin, r.key, r.item_id) in
      (match Hashtbl.find_opt best k with
      | Some seen when r.version < seen ->
        diags :=
          D.makef ~severity:D.Error ~code:"stale-read"
            "origin %d read item %s (key %S) at version %d after having already observed \
             version %d"
            r.origin r.item_id r.key r.version seen
          :: !diags
      | _ -> ());
      match Hashtbl.find_opt best k with
      | Some seen when seen >= r.version -> ()
      | _ -> Hashtbl.replace best k r.version)
    obs;
  List.rev !diags
