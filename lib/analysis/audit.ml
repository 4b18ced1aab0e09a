module Overlay = Unistore_pgrid.Overlay
module Node = Unistore_pgrid.Node
module Store = Unistore_pgrid.Store
module Chord = Unistore_chord.Chord
module Ring = Unistore_chord.Ring
module Bitkey = Unistore_util.Bitkey
module Rng = Unistore_util.Rng
module D = Diagnostic

(* ------------------------------------------------------------------ *)
(* P-Grid                                                              *)

let random_probe_key rng =
  (* Mix printable and raw-byte keys to probe all of key space (the
     same scheme as the coverage check of Build.bootstrap). *)
  let len = 1 + Rng.int rng 12 in
  String.init len (fun _ -> Char.chr (Rng.int rng 256))

let pgrid ?(probes = 256) ov =
  let ds = ref [] in
  let err code fmt = Format.kasprintf (fun m -> ds := D.make ~severity:D.Error ~code m :: !ds) fmt in
  let warn code fmt =
    Format.kasprintf (fun m -> ds := D.make ~severity:D.Warning ~code m :: !ds) fmt
  in
  let nodes = Overlay.nodes ov in
  (* Trie-path / split consistency and region sanity. *)
  List.iter
    (fun (nd : Node.t) ->
      let plen = Bitkey.length nd.Node.path in
      if Array.length nd.Node.splits <> plen then
        err "split-arity" "peer%d has %d split boundaries for a %d-level path" nd.Node.id
          (Array.length nd.Node.splits) plen;
      match Node.region nd with
      | lo, Some hi when String.compare lo hi >= 0 ->
        err "empty-region" "peer%d has empty region [%S, %S)" nd.Node.id lo hi
      | _ -> ())
    nodes;
  (* Key-space coverage. *)
  let probe_rng = Rng.create 0xC0FFEE in
  let uncovered = ref 0 and example = ref "" in
  for _ = 1 to probes do
    let key = random_probe_key probe_rng in
    if Overlay.Oracle.responsible ov key = [] then begin
      incr uncovered;
      if !example = "" then example := key
    end
  done;
  if !uncovered > 0 then
    err "uncovered-key" "%d of %d probe keys have no responsible peer (e.g. %S)" !uncovered probes
      !example;
  (* Data placement: stored items must lie in the peer's region. *)
  List.iter
    (fun (nd : Node.t) ->
      Store.iter nd.Node.store (fun item ->
          if not (Node.covers nd item.Store.key) then
            err "misplaced-item" "peer%d stores item %S/%S outside its region" nd.Node.id
              item.Store.key item.Store.item_id))
    nodes;
  (* Routing references: level l must point into the complementary
     subtree at depth l+1. *)
  List.iter
    (fun (nd : Node.t) ->
      Array.iteri
        (fun l refs ->
          Array.iter
            (fun r ->
              match Overlay.node ov r with
              | target ->
                let sibling = Bitkey.flip (Bitkey.take nd.Node.path (l + 1)) l in
                let tp = target.Node.path in
                if
                  not (Bitkey.is_prefix ~prefix:sibling tp || Bitkey.is_prefix ~prefix:tp sibling)
                then
                  err "bad-ref" "peer%d level-%d ref peer%d has path %a, not in subtree %a"
                    nd.Node.id l r Bitkey.pp tp Bitkey.pp sibling
              | exception Invalid_argument _ ->
                err "unknown-peer" "peer%d references unknown peer %d at level %d" nd.Node.id r l)
            refs)
        nd.Node.refs)
    nodes;
  (* Replica-set agreement. *)
  List.iter
    (fun (nd : Node.t) ->
      List.iter
        (fun r ->
          match Overlay.node ov r with
          | target ->
            if not (Bitkey.equal target.Node.path nd.Node.path) then
              err "replica-path" "peer%d replica peer%d has path %a, expected %a" nd.Node.id r
                Bitkey.pp target.Node.path Bitkey.pp nd.Node.path
            else begin
              if not (List.mem nd.Node.id target.Node.replicas) then
                warn "replica-asymmetry" "peer%d lists replica peer%d, but not vice versa"
                  nd.Node.id r;
              let dg n = List.sort compare (Store.digest n.Node.store) in
              if dg nd <> dg target then
                warn "replica-divergence"
                  "peer%d and replica peer%d hold different items (anti-entropy pending?)"
                  nd.Node.id r
            end
          | exception Invalid_argument _ ->
            err "unknown-peer" "peer%d lists unknown replica %d" nd.Node.id r)
        nd.Node.replicas)
    nodes;
  Diagnostic.sort (List.rev !ds)

(* ------------------------------------------------------------------ *)
(* Chord                                                               *)

let chord t =
  let ds = ref [] in
  let err code fmt = Format.kasprintf (fun m -> ds := D.make ~severity:D.Error ~code m :: !ds) fmt in
  let warn code fmt =
    Format.kasprintf (fun m -> ds := D.make ~severity:D.Warning ~code m :: !ds) fmt
  in
  let peers = Chord.peers t in
  let by_ring =
    List.sort (fun a b -> compare (Chord.ring_id t a) (Chord.ring_id t b)) peers |> Array.of_list
  in
  let n = Array.length by_ring in
  (* Unique ring identifiers (the oracle construction requires it). *)
  for i = 1 to n - 1 do
    if Chord.ring_id t by_ring.(i) = Chord.ring_id t by_ring.(i - 1) then
      err "duplicate-ring-id" "peers %d and %d share ring id %d" by_ring.(i - 1) by_ring.(i)
        (Chord.ring_id t by_ring.(i))
  done;
  let index_of = Hashtbl.create n in
  Array.iteri (fun i id -> Hashtbl.replace index_of id i) by_ring;
  (* First peer whose ring id is >= x, clockwise with wrap-around. *)
  let succ_of_ring x =
    let rec scan i = if i >= n then by_ring.(0) else if Chord.ring_id t by_ring.(i) >= x then by_ring.(i) else scan (i + 1) in
    scan 0
  in
  List.iter
    (fun id ->
      let i = Hashtbl.find index_of id in
      (* Successor list: the next peers clockwise, nearest first. *)
      List.iteri
        (fun k s ->
          let expected = by_ring.((i + 1 + k) mod n) in
          if s <> expected then
            err "bad-successor" "peer%d successor[%d] is peer%d, expected peer%d" id k s expected)
        (Chord.successors t id);
      let expected_pred = by_ring.((i + n - 1) mod n) in
      if n > 1 && Chord.predecessor_of t id <> expected_pred then
        err "bad-predecessor" "peer%d predecessor is peer%d, expected peer%d" id
          (Chord.predecessor_of t id) expected_pred;
      Array.iteri
        (fun b f ->
          let expected = succ_of_ring (Ring.finger_start (Chord.ring_id t id) b) in
          if f <> expected then
            err "bad-finger" "peer%d finger[%d] is peer%d, expected peer%d" id b f expected)
        (Chord.fingers t id);
      (* Liveness: an alive peer whose successors are all dead loses its
         replica group and strands routed operations. *)
      let succs = Chord.successors t id in
      if
        Chord.Oracle.is_alive t id && succs <> []
        && not (List.exists (Chord.Oracle.is_alive t) succs)
      then
        warn "dead-successors" "peer%d is alive but every successor %s is dead" id
          (String.concat "," (List.map string_of_int succs)))
    peers;
  Diagnostic.sort (List.rev !ds)
