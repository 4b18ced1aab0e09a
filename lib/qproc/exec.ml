module Ast = Unistore_vql.Ast
module Algebra = Unistore_vql.Algebra
module Value = Unistore_triple.Value
module Triple = Unistore_triple.Triple
module Tstore = Unistore_triple.Tstore
module Dht = Unistore_triple.Dht
module Keys = Unistore_triple.Keys
module Sim = Unistore_sim.Sim
module Det = Unistore_util.Det
module Cps = Unistore_util.Cps

type step_trace = {
  step : Physical.step;
  rows_in : int;
  actual_card : int;
  messages : int;
  latency : float;
  carrier : int;
  shipped : int;
}

let pp_step_trace fmt t =
  Format.fprintf fmt "%a via %s%a at peer%d: %d -> %d rows, %d msgs, %.1f ms, %d B shipped"
    Ast.pp_pattern t.step.Physical.pattern
    (if t.step.Physical.bindjoin then "bind-join/" else "")
    Cost.pp_access t.step.Physical.access t.carrier t.rows_in t.actual_card t.messages t.latency
    t.shipped

type run_result = {
  rows : Binding.t list;
  messages : int;
  latency : float;
  complete : bool;
  completeness : float;
  traces : step_trace list;
  bytes_shipped : int;
}

(* ------------------------------------------------------------------ *)
(* Per-query state                                                     *)

(* One executing plan, in the style of the overlay's request record:
   what every step reads (store, origin, the origin's result cache,
   mapping expansions, the schema every row is laid on) and what the
   steps accumulate. Message and time figures are deltas of the global
   counters since the query started, so they are exact only while the
   query runs alone. *)
type run = {
  ts : Tstore.t;
  dht : Dht.t;
  origin : int;
  cache : Qcache.t option;
  expansions : (string * string list) list;
  schema : Binding.schema;
  unit : Binding.t;  (* the empty row over [schema] *)
  t0 : float;
  m0 : int;
  mutable complete : bool;
  mutable cov : float;
  mutable traces : step_trace list;  (* newest first *)
  mutable bytes_shipped : int;
}

let start_run ?cache ts ~origin ~expansions patterns =
  let dht = Tstore.dht ts in
  let schema = Binding.schema (List.concat_map Ast.pattern_vars patterns) in
  {
    ts;
    dht;
    origin;
    cache;
    expansions;
    schema;
    unit = Binding.empty_of schema;
    t0 = Sim.now dht.Dht.sim;
    m0 = dht.Dht.total_sent ();
    complete = true;
    cov = 1.0;
    traces = [];
    bytes_shipped = 0;
  }

(* Fold one access's coverage into the query's. *)
let note run (r : Dht.result) =
  if not r.Dht.complete then run.complete <- false;
  run.cov <- Float.min run.cov r.Dht.completeness

let result_of run rows =
  {
    rows;
    messages = run.dht.Dht.total_sent () - run.m0;
    latency = Sim.now run.dht.Dht.sim -. run.t0;
    complete = run.complete;
    completeness = run.cov;
    traces = List.rev run.traces;
    bytes_shipped = run.bytes_shipped;
  }

(* The result cache lives at the query origin; a travelling plan can
   only consult it while it is still (or again) executing there. *)
let cache_at run carrier = if carrier = run.origin then run.cache else None

(* ------------------------------------------------------------------ *)
(* Access execution (from a given carrier)                             *)

let expansions_for plan_expansions attr =
  match List.assoc_opt attr plan_expansions with
  | Some eqs when eqs <> [] -> if List.mem attr eqs then eqs else attr :: eqs
  | _ -> [ attr ]

let access_with_attr access attr =
  match (access : Cost.access) with
  | Cost.AAttrValue (_, v) -> Cost.AAttrValue (attr, v)
  | Cost.AAttrRange (_, lo, hi) -> Cost.AAttrRange (attr, lo, hi)
  | Cost.AAttrAll _ -> Cost.AAttrAll attr
  | Cost.AAttrPrefix (_, p) -> Cost.AAttrPrefix (attr, p)
  | Cost.ASim (Some _, p, d) -> Cost.ASim (Some attr, p, d)
  | Cost.ASubstring (Some _, p) -> Cost.ASubstring (Some attr, p)
  | Cost.ATopN (_, n) -> Cost.ATopN (attr, n)
  | other -> other

let pattern_with_attr (p : Ast.pattern) attr =
  match p.Ast.attr with
  | Ast.TConst (Value.S _) -> { p with Ast.attr = Ast.TConst (Value.S attr) }
  | _ -> p

let range_defaults lo hi =
  (* Open bounds fall back to the type extremes of the present bound. *)
  match (lo, hi) with
  | Some l, Some h -> (l, h)
  | Some l, None -> (l, Option.get (Value.decode (Value.type_max l)))
  | None, Some h -> (Option.get (Value.decode (Value.type_min h)), h)
  | None, None -> invalid_arg "Exec: unbounded range access"

let uncached_access ts ~origin (access : Cost.access) ~matches ~k =
  match access with
  | Cost.AOid oid -> Tstore.by_oid ts ~origin oid ~k
  | Cost.AAttrValue (a, v) -> Tstore.by_attr_value ts ~origin ~attr:a v ~k
  | Cost.AAttrRange (a, lo, hi) ->
    let lo, hi = range_defaults lo hi in
    Tstore.by_attr_range ts ~origin ~attr:a ~lo ~hi ~k
  | Cost.AAttrAll a -> Tstore.by_attr_all ts ~origin ~attr:a ~k
  | Cost.AAttrPrefix (a, pre) ->
    Tstore.by_attr_string_prefix ts ~origin ~attr:a ~string_prefix:pre ~k
  | Cost.AValue v -> Tstore.by_value ts ~origin v ~k
  | Cost.ASim (a, pat, d) -> Tstore.similar ts ~origin ~attr:a ~pattern:pat ~d ~k
  | Cost.ASubstring (a, pat) -> Tstore.containing ts ~origin ~attr:a ~pattern:pat ~k
  | Cost.ATopN (a, n) -> Tstore.top_n_by_attr ts ~origin ~attr:a ~n ~k ()
  | Cost.ABroadcast -> Tstore.scan ts ~origin ~pred:matches ~k

(* Execute one access, unioned over mapping expansions of its attribute
   (one expansion after another); [k] gets the bindings producible by
   [p] or an expanded variant. A complete answer fills the result cache;
   a cache hit costs no message and no simulated time. *)
let exec_access run ~carrier access (p : Ast.pattern) ~k =
  let cache = cache_at run carrier in
  let attrs =
    match access with
    | Cost.AAttrValue (a, _) | Cost.AAttrRange (a, _, _) | Cost.AAttrAll a | Cost.AAttrPrefix (a, _)
    | Cost.ASim (Some a, _, _) | Cost.ASubstring (Some a, _) | Cost.ATopN (a, _) ->
      expansions_for run.expansions a
    | _ -> [ "" ]
  in
  let runs =
    match attrs with
    | [ "" ] -> [ (access, p) ]
    | _ -> List.map (fun a -> (access_with_attr access a, pattern_with_attr p a)) attrs
  in
  let one (acc, pat) ~k =
    let cp = Binding.compile run.schema pat in
    let row tr = Binding.match_compiled run.unit cp tr in
    let bind triples = k (List.filter_map row triples) in
    match Option.bind cache (fun c -> Qcache.find_access c acc) with
    | Some triples -> bind triples
    | None ->
      let matches tr = Option.is_some (row tr) in
      uncached_access run.ts ~origin:carrier acc ~matches ~k:(fun (triples, (r : Dht.result)) ->
          (match cache with
          | Some c when r.Dht.complete -> Qcache.store_access c acc triples
          | _ -> ());
          note run r;
          bind triples)
  in
  Cps.map one runs ~k:(fun parts -> k (List.concat parts))

(* ------------------------------------------------------------------ *)
(* Bind-join: one parallel round of deduplicated direct lookups        *)

type bind_lookup = LOid of string | LAttrValue of string * Value.t

(* A row's bound lookup for [p]: by OID when the subject is bound, else
   by attribute and value when the object is. Slots are resolved once. *)
let bind_lookup_for (p : Ast.pattern) =
  let subj = match p.Ast.subj with Ast.TVar v -> Some (Binding.getter v) | Ast.TConst _ -> None in
  let attr_value =
    match (p.Ast.attr, p.Ast.obj) with
    | Ast.TConst (Value.S a), Ast.TVar ov -> Some (a, Binding.getter ov)
    | _ -> None
  in
  fun binding ->
    match Option.bind subj (fun get -> get binding) with
    | Some (Value.S oid) -> Some (LOid oid)
    | Some _ -> None
    | None -> (
      match attr_value with
      | Some (a, get) -> Option.map (fun v -> LAttrValue (a, v)) (get binding)
      | None -> None)

(* Keys to probe for one bound lookup, each with the attribute that
   governs its cache invalidation ([None] for OID lookups). *)
let lookup_keys_of ~expansions = function
  | LOid oid -> [ (Keys.oid_key oid, None) ]
  | LAttrValue (a, v) ->
    List.map (fun a' -> (Keys.attr_value_key a' v, Some a')) (expansions_for expansions a)

(* One distinct probe key of a bind-join, with the attribute that
   governs its cache invalidation and, once resolved, its triples. *)
type probe = { key : string; attr : string option; mutable triples : Triple.t list }

let exec_bindjoin run ~carrier (p : Ast.pattern) left ~k =
  let cache = cache_at run carrier and expansions = run.expansions in
  (* Dedupe lookup keys across the left side (semi-join optimization):
     each left row holds the probes of its keys, built once. *)
  let by_key = Hashtbl.create 64 in
  let probe_of (key, attr) =
    match Hashtbl.find_opt by_key key with
    | Some probe -> probe
    | None ->
      let probe = { key; attr; triples = [] } in
      Hashtbl.add by_key key probe;
      probe
  in
  let lookup = bind_lookup_for p in
  let rows =
    List.map
      (fun b ->
        ( b,
          match lookup b with
          | Some l -> List.map probe_of (lookup_keys_of ~expansions l)
          | None -> [] ))
      left
  in
  (* Only triples of the pattern's attribute or a mapping-equivalent one
     can match; a probe keeps just those, however many rows share it.
     An equivalent attribute matches through the pattern rewritten to
     it. *)
  let compiled = Binding.compile run.schema p in
  let keep, match_into =
    match p.Ast.attr with
    | Ast.TConst (Value.S a) ->
      let eqs = expansions_for expansions a in
      ( List.filter (fun (tr : Triple.t) -> List.mem tr.Triple.attr eqs),
        fun b (tr : Triple.t) ->
          let cp =
            if String.equal tr.Triple.attr a then compiled
            else Binding.compile run.schema (pattern_with_attr p tr.Triple.attr)
          in
          Binding.match_compiled b cp tr )
    | _ -> (Fun.id, fun b tr -> Binding.match_compiled b compiled tr)
  in
  (* Answer what the per-key cache can; look up only the rest. The
     residual keys become lookup messages: visit them in key order so
     the wire traffic does not depend on hash-bucket order. *)
  let residual =
    Det.sorted_bindings ~cmp:String.compare by_key
    |> List.filter_map (fun (key, probe) ->
           match Option.bind cache (fun c -> Qcache.find_bind c ~attr:probe.attr ~key) with
           | Some triples ->
             probe.triples <- keep triples;
             None
           | None -> Some probe)
  in
  (* A probed key's answer: cache all of it when complete, keep what can
     match. *)
  let resolve (r : Dht.result) probe items =
    let triples = Tstore.decode_items items in
    probe.triples <- keep triples;
    match cache with
    | Some c when r.Dht.complete -> Qcache.store_bind c ~attr:probe.attr ~key:probe.key triples
    | _ -> ()
  in
  let join () =
    let out = ref [] in
    List.iter
      (fun (b, probes) ->
        List.iter
          (fun probe ->
            List.iter
              (fun tr -> match match_into b tr with Some m -> out := m :: !out | None -> ())
              probe.triples)
          probes)
      rows;
    List.rev !out
  in
  let dht = run.dht in
  match (dht.Dht.multi_lookup, residual) with
  | _, [] -> k (join ())
  | Some ml, _ :: _ :: _ ->
    (* Batched probe round: the deduplicated keys travel as one
       multi-lookup that splits by responsible region, instead of one
       routed lookup per key. *)
    ml ~origin:carrier
      ~keys:(List.map (fun probe -> probe.key) residual)
      ~k:(fun (found, r) ->
        note run r;
        List.iter
          (fun (key, items) ->
            Option.iter (fun probe -> resolve r probe items) (Hashtbl.find_opt by_key key))
          found;
        k (join ()))
  | _ ->
    (* One parallel round of per-key lookups. *)
    let probe_one probe ~k =
      dht.Dht.lookup ~origin:carrier ~key:probe.key ~k:(fun r ->
          note run r;
          resolve r probe r.Dht.items;
          k ())
    in
    Cps.all probe_one residual ~k:(fun _ -> k (join ()))

(* ------------------------------------------------------------------ *)
(* Joins and filters                                                   *)

(* Rows of both sides share the query's schema. The right side goes into
   a table of chained buckets held in arrays, keyed on a hash of the
   shared slots' values: [first.(b)] is the newest row of bucket [b] and
   [next.(i)] the row inserted before row [i], so a probe walks its
   bucket newest first. The output is the left rows in order, each
   followed by its matches newest first. *)
let hash_join left right =
  match (left, right) with
  | [], _ | _, [] -> []
  | l0 :: _, r0 :: _ ->
    (* The slots of one representative per side suffice: all bindings of
       a side bind the same variables (they come from the same pattern
       chain). *)
    let shared = Binding.shared_slots l0 r0 in
    if Array.length shared = 0 then
      (* Cartesian product. *)
      List.concat_map (fun l -> List.filter_map (Binding.compatible l) right) left
    else begin
      (* Not [Array.of_list]: the runtime makes a minor collection before
         filling a large array with a young value, and the first row is
         young. [Binding.empty] is not. *)
      let n = List.length right in
      let rows = Array.make n Binding.empty in
      List.iteri (fun i r -> rows.(i) <- r) right;
      let rec pow2 s = if s >= n then s else pow2 (2 * s) in
      let mask = pow2 16 - 1 in
      let first = Array.make (mask + 1) (-1) and next = Array.make n (-1) in
      let hashes = Array.map (Binding.hash_at shared) rows in
      for i = 0 to n - 1 do
        let h = hashes.(i) in
        if h >= 0 then begin
          next.(i) <- first.(h land mask);
          first.(h land mask) <- i
        end
      done;
      let out = ref [] in
      List.iter
        (fun l ->
          let h = Binding.hash_at shared l in
          if h >= 0 then begin
            let i = ref first.(h land mask) in
            while !i >= 0 do
              let r = rows.(!i) in
              if hashes.(!i) = h && Binding.equal_at shared l r then begin
                match Binding.compatible l r with Some m -> out := m :: !out | None -> ()
              end;
              i := next.(!i)
            done
          end)
        left;
      List.rev !out
    end

let apply_filters filters rows =
  List.fold_left
    (fun rows f -> List.filter (fun b -> Algebra.eval_pred (Binding.lookup b) f) rows)
    rows filters

(* ------------------------------------------------------------------ *)
(* Post-processing (ranking, projection, distinct, limit)              *)

let postprocess (plan : Physical.t) rows =
  let rows = apply_filters plan.Physical.post_filters rows in
  let rows =
    match plan.Physical.order with
    | Some (Ast.OrderBy items) -> (
      (* DISTINCT may drop rows among the first [n], so it needs them
         all ordered. *)
      match plan.Physical.limit with
      | Some n when not plan.Physical.distinct -> Ranking.top_n n items rows
      | _ -> Ranking.order_by items rows)
    | Some (Ast.Skyline items) -> Ranking.skyline items rows
    | None -> rows
  in
  let rows =
    match plan.Physical.projection with
    | Some vs -> List.map (Binding.project vs) rows
    | None -> rows
  in
  let rows =
    if plan.Physical.distinct then begin
      let seen = Hashtbl.create 64 in
      List.filter
        (fun b ->
          let fp = Binding.fingerprint b in
          if Hashtbl.mem seen fp then false
          else begin
            Hashtbl.replace seen fp ();
            true
          end)
        rows
    end
    else rows
  in
  (* top_n may already have truncated; truncation is idempotent, so
     apply it uniformly. *)
  match plan.Physical.limit with
  | Some n -> List.filteri (fun i _ -> i < n) rows
  | None -> rows

(* ------------------------------------------------------------------ *)
(* Step execution (shared by both strategies)                          *)

(* Run one physical step at [carrier] over the rows so far ([None]
   before the first step) and record its trace; [shipped] is the bytes
   of the carrier hop that brought the plan there. *)
let run_step run ~carrier ~shipped (step : Physical.step) rows_opt ~k =
  let dht = run.dht in
  let step_m0 = dht.Dht.total_sent () in
  let step_t0 = Sim.now dht.Dht.sim in
  let rows_in = match rows_opt with None -> 0 | Some left -> List.length left in
  let finish produced =
    let produced = apply_filters step.Physical.residual produced in
    run.traces <-
      {
        step;
        rows_in;
        actual_card = List.length produced;
        messages = dht.Dht.total_sent () - step_m0;
        latency = Sim.now dht.Dht.sim -. step_t0;
        carrier;
        shipped;
      }
      :: run.traces;
    k produced
  in
  match rows_opt with
  | None -> exec_access run ~carrier step.Physical.access step.Physical.pattern ~k:finish
  | Some left when step.Physical.bindjoin ->
    exec_bindjoin run ~carrier step.Physical.pattern left ~k:finish
  | Some left ->
    exec_access run ~carrier step.Physical.access step.Physical.pattern ~k:(fun right ->
        finish (hash_join left right))

(* ------------------------------------------------------------------ *)
(* Centralized execution                                               *)

let run_centralized ?cache ts ~origin (plan : Physical.t) ~k =
  let run =
    start_run ?cache ts ~origin ~expansions:plan.Physical.expansions
      (List.map (fun (s : Physical.step) -> s.Physical.pattern) plan.Physical.steps)
  in
  Cps.fold
    (fun rows step ~k ->
      run_step run ~carrier:origin ~shipped:0 step rows ~k:(fun produced -> k (Some produced)))
    None plan.Physical.steps
    ~k:(fun rows -> k (result_of run (postprocess plan (Option.value ~default:[] rows))))

(* ------------------------------------------------------------------ *)
(* Mutant (adaptive) execution                                         *)

let carrier_key_of_access = function
  | Cost.AOid oid -> Some (Keys.oid_key oid)
  | Cost.AAttrValue (a, v) -> Some (Keys.attr_value_key a v)
  | Cost.AAttrRange (a, Some lo, _) -> Some (Keys.attr_value_key a lo)
  | Cost.AAttrRange (a, None, _) | Cost.AAttrAll a -> Some (Keys.attr_prefix a)
  | Cost.AAttrPrefix (a, p) -> Some (Keys.attr_string_prefix a ~string_prefix:p)
  | Cost.AValue v -> Some (Keys.value_key v)
  | Cost.ATopN (a, _) -> Some (Keys.attr_prefix a)
  | Cost.ASim _ | Cost.ASubstring _ | Cost.ABroadcast -> None

let plan_overhead_bytes = 256

let rows_bytes rows = List.fold_left (fun acc b -> acc + Binding.bytes b) 0 rows

let run_mutant ?cache ts stats env ~origin (q : Ast.query) ~expansions ~k =
  let dht = Tstore.dht ts in
  let send_task =
    match dht.Dht.send_task with
    | Some f -> f
    | None -> invalid_arg "Exec.run_mutant: substrate does not support plan shipping"
  in
  let run = start_run ?cache ts ~origin ~expansions q.Ast.patterns in
  let qgrams = Tstore.qgrams_enabled ts in
  let cmap = Algebra.var_constraints q.Ast.filters in
  (* One carrier hop: [k] gets the new carrier and the bytes shipped,
     or the old carrier and 0 (and the query turns partial) if the task
     was lost. *)
  let hop ~from ~dst ~bytes ~k =
    send_task ~src:from ~dst ~bytes ~k:(fun arrived ->
        if arrived then begin
          run.bytes_shipped <- run.bytes_shipped + bytes;
          k dst bytes
        end
        else begin
          run.complete <- false;
          k from 0
        end)
  in
  let applied_filters = ref [] in
  let pending_filters () =
    List.filter (fun f -> not (List.memq f !applied_filters)) q.Ast.filters
  in
  (* Cut each row down to what the rest of the plan reads: the
     variables of the [remaining] patterns, of the filters not yet
     applied, of the ranking goals and of the projection. SELECT * reads
     every variable. *)
  let trim remaining rows =
    match q.Ast.projection with
    | None -> rows
    | Some projection ->
      let goals =
        match q.Ast.order with
        | Some (Ast.OrderBy items) -> List.map fst items
        | Some (Ast.Skyline items) -> List.map fst items
        | None -> []
      in
      let live =
        projection @ goals
        @ List.concat_map Ast.pattern_vars remaining
        @ List.concat_map Ast.expr_vars (pending_filters ())
      in
      List.map (Binding.project live) rows
  in
  (* Move the plan to the peer responsible for [access]'s index region,
     when there is one, with the rows trimmed for [remaining]. [k] gets
     the carrier, the rows and the bytes shipped. *)
  let move ~carrier access ~remaining rows ~k =
    match Option.bind (carrier_key_of_access access) dht.Dht.responsible_peer with
    | Some dst when dst <> carrier ->
      let rows = trim remaining rows in
      hop ~from:carrier ~dst ~bytes:(plan_overhead_bytes + rows_bytes rows)
        ~k:(fun carrier shipped -> k carrier rows shipped)
    | _ -> k carrier rows 0
  in
  let attach rows bound =
    (* Apply every filter that just became fully bound. *)
    let ready =
      List.filter
        (fun f -> List.for_all (fun v -> List.mem v bound) (Ast.expr_vars f))
        (pending_filters ())
    in
    applied_filters := ready @ !applied_filters;
    apply_filters ready rows
  in
  (* The last carrier post-processes (leftover filters, ranking,
     projection, distinct, limit) with the static plan shape, so only
     the answer travels home. *)
  let finish ~carrier rows =
    let post_plan =
      {
        Physical.steps = [];
        post_filters = pending_filters ();
        order = q.Ast.order;
        projection = q.Ast.projection;
        distinct = q.Ast.distinct;
        limit = q.Ast.limit;
        expansions;
        total_est = { Cost.messages = 0.0; latency = 0.0; cardinality = 0.0 };
        branches = [];
      }
    in
    let rows = postprocess post_plan rows in
    if carrier = origin then k (result_of run rows)
    else
      hop ~from:carrier ~dst:origin ~bytes:(rows_bytes rows + 32) ~k:(fun _ _ ->
          k (result_of run rows))
  in
  let rec continue ~carrier rows bound remaining =
    match remaining with
    | [] -> finish ~carrier rows
    | _ ->
      (* Re-optimize the remainder with the observed cardinality. *)
      let step, rest =
        Optimizer.choose_next env stats ~qgrams cmap ~bound
          ~card_left:(float_of_int (List.length rows))
          remaining
      in
      let step = { step with Physical.residual = [] } in
      let execute carrier rows shipped =
        run_step run ~carrier ~shipped step (Some rows) ~k:(fun rows ->
            let bound = List.sort_uniq compare (bound @ Ast.pattern_vars step.Physical.pattern) in
            continue ~carrier (attach rows bound) bound rest)
      in
      if step.Physical.bindjoin then execute carrier rows 0
      else move ~carrier step.Physical.access ~remaining rows ~k:execute
  in
  (* First step: move the plan to the data, evaluate there. *)
  let fs, remaining = Optimizer.first_step env stats ~qgrams cmap q.Ast.patterns in
  let fs = { fs with Physical.residual = [] } in
  move ~carrier:origin fs.Physical.access ~remaining:q.Ast.patterns [] ~k:(fun carrier _ shipped ->
      run_step run ~carrier ~shipped fs None ~k:(fun rows ->
          let bound = Ast.pattern_vars fs.Physical.pattern in
          continue ~carrier (attach rows bound) bound remaining))

(* ------------------------------------------------------------------ *)
(* Skyline pushdown                                                    *)

(* A query qualifies for in-network skyline evaluation when it is exactly
   the paper's skyline shape: every pattern binds a distinct constant
   attribute of one shared subject variable to a distinct object
   variable, there are no filters or unions, and SKYLINE OF ranges over
   (a subset of) those object variables. Returns
   [(goals, subject var, (attr, var) list)]. *)
let skyline_pushdown_shape (q : Ast.query) =
  match (q.Ast.union_branches, q.Ast.filters, q.Ast.order) with
  | [], [], Some (Ast.Skyline goals) when goals <> [] ->
    let rec collect subj acc = function
      | [] -> Option.map (fun s -> (s, List.rev acc)) subj
      | ({ Ast.subj = Ast.TVar s; attr = Ast.TConst (Value.S a); obj = Ast.TVar v; _ } :
          Ast.pattern)
        :: rest ->
        if
          (match subj with Some s' -> not (String.equal s s') | None -> false)
          || List.exists (fun (a', v') -> String.equal a a' || String.equal v v') acc
          || String.equal s v
        then None
        else collect (Some s) ((a, v) :: acc) rest
      | _ :: _ -> None
    in
    (match collect None [] q.Ast.patterns with
    | Some (s, av)
      when av <> [] && List.for_all (fun (g, _) -> List.mem_assoc g (List.map (fun (a, v) -> (v, a)) av)) goals
      ->
      Some (goals, s, av)
    | _ -> None)
  | _ -> None

(* Deterministic grouping of a leaf's (or the origin's) triples into
   logical tuples: sort by OID, then attr, then encoded value. *)
let group_by_oid triples =
  let sorted =
    List.stable_sort
      (fun (a : Triple.t) b ->
        let c = String.compare a.Triple.oid b.Triple.oid in
        if c <> 0 then c
        else begin
          let c = String.compare a.Triple.attr b.Triple.attr in
          if c <> 0 then c
          else String.compare (Value.encode a.Triple.value) (Value.encode b.Triple.value)
        end)
      triples
  in
  let rec go groups current = function
    | [] -> List.rev (match current with [] -> groups | g -> List.rev g :: groups)
    | (tr : Triple.t) :: rest -> (
      match current with
      | (last : Triple.t) :: _ when String.equal last.Triple.oid tr.Triple.oid ->
        go groups (tr :: current) rest
      | [] -> go groups [ tr ] rest
      | g -> go (List.rev g :: groups) [ tr ] rest)
  in
  go [] [] sorted

(* The bindings one tuple produces under the pushdown pattern shape:
   cross product over the per-attribute values, empty unless every
   pattern attribute is present (join semantics). *)
let tuple_bindings ~unit ~subj ~av (group : Triple.t list) =
  match group with
  | [] -> []
  | tr0 :: _ ->
    let values a =
      List.filter_map
        (fun (tr : Triple.t) ->
          if String.equal tr.Triple.attr a then Some tr.Triple.value else None)
        group
    in
    let seed =
      match Binding.bind unit subj (Value.S tr0.Triple.oid) with
      | Some b -> [ b ]
      | None -> []
    in
    List.fold_left
      (fun acc (a, v) ->
        match values a with
        | [] -> []
        | vs ->
          List.concat_map
            (fun b -> List.filter_map (fun value -> Binding.bind b v value) vs)
            acc)
      seed av

let run_skyline_pushdown ts ~scan ~origin (q : Ast.query) ~goals ~subj ~av ~k =
  let attrs = List.map fst av in
  let unit = Binding.empty_of (Binding.schema (subj :: List.map snd av)) in
  let pred (tr : Triple.t) = List.exists (String.equal tr.Triple.attr) attrs in
  (* Leaf-local reduction. Tuples are collocated (all triples of one OID
     share a single key), so per-tuple decisions are globally sound:
     - a tuple missing some pattern attribute produces no binding
       anywhere -> drop all its triples;
    - a complete single-valued tuple dominated by a co-located complete
       single-valued tuple can never be in the global skyline (dominance
       is transitive, so it is dominated by a locally *kept* tuple that
       reaches the origin) -> drop it;
     - anything else (multi-valued tuples) passes through untouched; the
       origin re-runs the exact skyline over all survivors. *)
  let reduce triples =
    let groups = group_by_oid triples in
    let classified =
      List.map
        (fun group ->
          match tuple_bindings ~unit ~subj ~av group with
          | [] -> (group, `Drop)
          | [ b ] -> (group, `Candidate b)
          | _ :: _ :: _ -> (group, `Pass))
        groups
    in
    let candidates =
      List.filter_map (function _, `Candidate b -> Some b | _ -> None) classified
    in
    let dominates = Ranking.dominates goals in
    List.concat_map
      (fun (group, cls) ->
        match cls with
        | `Drop -> []
        | `Pass -> group
        | `Candidate b ->
          if List.exists (fun b' -> dominates b' b) candidates then []
          else group)
      classified
  in
  let plan =
    {
      Physical.steps =
        [ {
            Physical.pattern = List.hd q.Ast.patterns;
            access = Cost.ABroadcast;
            bindjoin = false;
            residual = [];
            est = { Cost.messages = 0.0; latency = 0.0; cardinality = 0.0 };
          } ];
      post_filters = [];
      order = q.Ast.order;
      projection = q.Ast.projection;
      distinct = q.Ast.distinct;
      limit = q.Ast.limit;
      expansions = [];
      total_est = { Cost.messages = 0.0; latency = 0.0; cardinality = 0.0 };
      branches = [];
    }
  in
  let run = start_run ts ~origin ~expansions:[] [] in
  scan ~origin ~pred ~reduce ~k:(fun (triples, (r : Dht.result)) ->
      note run r;
      let rows =
        List.concat_map (tuple_bindings ~unit ~subj ~av) (group_by_oid triples) |> postprocess plan
      in
      run.traces <-
        [ {
            step = List.hd plan.Physical.steps;
            rows_in = 0;
            actual_card = List.length rows;
            messages = run.dht.Dht.total_sent () - run.m0;
            latency = r.Dht.latency;
            carrier = origin;
            shipped = 0;
          } ];
      k (plan, result_of run rows))
