module Bitkey = Unistore_util.Bitkey
module Rng = Unistore_util.Rng

(* Trie paths never grow beyond this depth. *)
let max_depth = 96

(* ------------------------------------------------------------------ *)
(* Split-point selection                                               *)

(* Byte-string midpoint of [lo, hi) over a fixed 32-byte window: the
   data-oblivious boundary used by the uniform (no-load-balancing)
   baseline. Returns [None] when the interval cannot be bisected. *)
let midpoint lo hi =
  let w = 32 in
  let pad s fill =
    String.init w (fun i -> if i < String.length s then s.[i] else fill)
  in
  let a = pad lo '\x00' in
  let b = match hi with None -> String.make w '\xff' | Some h -> pad h '\x00' in
  if String.compare a b >= 0 then None
  else begin
    (* (a + b) / 2 in big-endian base 256. *)
    let sum = Bytes.make (w + 1) '\000' in
    let carry = ref 0 in
    for i = w - 1 downto 0 do
      let s = Char.code a.[i] + Char.code b.[i] + !carry in
      Bytes.set sum (i + 1) (Char.chr (s land 0xFF));
      carry := s lsr 8
    done;
    Bytes.set sum 0 (Char.chr !carry);
    let mid = Bytes.make w '\000' in
    let rem = ref 0 in
    for i = 0 to w do
      let v = (!rem * 256) + Char.code (Bytes.get sum i) in
      if i > 0 then Bytes.set mid (i - 1) (Char.chr (v / 2));
      rem := v mod 2
    done;
    let m = Bytes.to_string mid in
    (* The boundary must strictly exceed [lo] so the low side is a proper
       subregion. *)
    if String.compare m a > 0 then Some m else None
  end

(* Median boundary of a non-empty multiset of keys: the element at the
   midpoint, bumped up past ties so that both sides are non-empty.
   [None] when every key is equal (a hot spot that only replication can
   spread). *)
let median_boundary sorted_keys =
  let arr = Array.of_list sorted_keys in
  let n = Array.length arr in
  if n = 0 then None
  else begin
    let candidate = arr.(n / 2) in
    if String.compare candidate arr.(0) > 0 then Some candidate
    else begin
      (* Everything up to the midpoint is equal: find the first strictly
         greater key. *)
      let rec scan i =
        if i >= n then None
        else if String.compare arr.(i) arr.(0) > 0 then Some arr.(i)
        else scan (i + 1)
      in
      scan (n / 2)
    end
  end

(* ------------------------------------------------------------------ *)
(* Routing-table filling                                               *)

(* The peers a level-[l] reference of a peer on [path] may name, as
   positions in [arr] (peers sorted by path): the run [lo, hi) below
   the level's sibling prefix (the path's first [l + 1] bits with the
   last flipped), then [anc], the peers sitting on that prefix's proper
   prefixes — which are the path's own first [0..l] bits, so one scan
   per prefix serves every level. [anc] is empty once paths form an
   antichain (always, for the oracle) but not mid-bootstrap. *)
type candidates = { lo : int; hi : int; anc : int array }

let candidates (arr : Node.t array) path =
  let n = Array.length arr in
  let search ok =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ok arr.(mid).Node.path then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let anc = ref [] in
  Array.init (Bitkey.length path) (fun l ->
      let p = Bitkey.take path l in
      let on = ref [] in
      let i = ref (search (fun q -> Bitkey.compare q p < 0)) in
      while !i < n && Bitkey.equal arr.(!i).Node.path p do
        on := arr.(!i).Node.id :: !on;
        incr i
      done;
      anc := !anc @ !on;
      let sibling = Bitkey.flip (Bitkey.take path (l + 1)) l in
      (* Prefixed paths sort before every larger unprefixed one. *)
      let below q = Bitkey.compare q sibling < 0 in
      let lo = search below in
      let hi = search (fun q -> below q || Bitkey.is_prefix ~prefix:sibling q) in
      { lo; hi; anc = Array.of_list !anc })

(* Refill level [l] of [nd]'s table from its candidates [c]: keep the
   live references and add up to [refs_per_level] in all — every
   candidate when they fit, else distinct ones by rejection ([k] is a
   small constant, so redraws are rare). *)
let fill_level ov ~rng (arr : Node.t array) c (nd : Node.t) l =
  let k = (Overlay.config ov).Config.refs_per_level in
  nd.refs.(l) <- Array.of_list (List.filter (Overlay.Oracle.alive ov) (Array.to_list nd.refs.(l))) (* srclint: allow oracle item-19 *);
  let run = c.hi - c.lo in
  let total = run + Array.length c.anc in
  let want = k - Array.length nd.refs.(l) in
  let pick j = if j < run then arr.(c.lo + j).Node.id else c.anc.(j - run) in
  let add j = Node.add_ref nd ~level:l (pick j) ~cap:k in
  if total <= want then for j = 0 to total - 1 do add j done
  else begin
    let chosen = ref [] in
    while List.length !chosen < want do
      let j = Rng.int rng total in
      if not (List.mem j !chosen) then begin
        chosen := j :: !chosen;
        add j
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Oracle construction                                                 *)

let oracle sim ~latency ~rng ?drop ~config ~n ~sample_keys ?(balanced = false) () =
  if n < 1 then invalid_arg "Build.oracle: n < 1";
  let rng = Rng.split rng in
  let ov = Overlay.create sim ~latency ~rng ?drop ~config () in
  let all_nodes = List.init n (fun i -> Overlay.add_node ov i) in
  let repl = max 1 config.Config.replication in
  let leaves = ref [] in
  (* [keys] arrives sorted; [region] is the (lo, hi) interval of this
     subtree, used by the uniform baseline's midpoint splits. *)
  let rec split path splits region peers keys =
    let np = List.length peers in
    let stop () = leaves := (path, splits, peers) :: !leaves in
    if np < 2 * repl || Bitkey.length path >= max_depth then stop ()
    else begin
      let boundary =
        if balanced || keys = [] then midpoint (fst region) (snd region)
        else median_boundary keys
      in
      match boundary with
      | None -> stop ()
      | Some b ->
        let k0, k1 = List.partition (fun k -> String.compare k b < 0) keys in
        let n0 =
          if balanced || keys = [] then np / 2
          else begin
            (* Peers proportional to data share: the converged state of
               P-Grid's storage load balancing (Aberer et al., VLDB'05). *)
            let frac = float_of_int (List.length k0) /. float_of_int (List.length keys) in
            int_of_float (Float.round (frac *. float_of_int np))
          end
        in
        let n0 = max repl (min (np - repl) n0) in
        let arr = Array.of_list peers in
        Rng.shuffle rng arr;
        let p0 = Array.to_list (Array.sub arr 0 n0) in
        let p1 = Array.to_list (Array.sub arr n0 (np - n0)) in
        let lo, hi = region in
        split (Bitkey.append_bit path false) (splits @ [ b ]) (lo, Some b) p0 k0;
        split (Bitkey.append_bit path true) (splits @ [ b ]) (b, hi) p1 k1
    end
  in
  split Bitkey.empty [] ("", None) all_nodes (List.sort String.compare sample_keys);
  let leaves = Array.of_list !leaves in
  (* Paths, boundaries and replica groups. *)
  Array.iter
    (fun (path, splits, peers) ->
      let splits = Array.of_list splits in
      List.iter
        (fun (nd : Node.t) ->
          Node.set_path nd path splits;
          List.iter (fun (other : Node.t) -> Node.add_replica nd other.id) peers)
        peers)
    leaves;
  (* Routing references: the leaves' groups in path order are the
     sorted peer array the filler searches. *)
  let arr =
    Array.to_list leaves
    |> List.sort (fun (a, _, _) (b, _, _) -> Bitkey.compare a b)
    |> List.concat_map (fun (_, _, peers) -> peers)
    |> Array.of_list
  in
  Array.iter
    (fun (path, _, peers) ->
      Array.iteri
        (fun l c -> List.iter (fun nd -> fill_level ov ~rng arr c nd l) peers)
        (candidates arr path))
    leaves;
  ov

(* A newcomer integrates into a RUNNING overlay by cloning a bootstrap
   peer: it adopts the peer's trie position (path + split boundaries),
   copies its routing references, joins its replica group and receives a
   copy of its data — the standard P-Grid join; later meetings of the
   load-balancing protocol may move it elsewhere. *)
let join ov ~id ~bootstrap =
  let nd = Overlay.add_node ov id in
  let joined = ref false in
  Overlay.send_task ov ~src:id ~dst:bootstrap ~bytes:64 (fun _ ->
      let b = Overlay.node ov bootstrap in
      Node.adopt_position nd ~template:b ~cap:(Overlay.config ov).Config.refs_per_level;
      (* Mutual replica registration across the whole group. *)
      let group = bootstrap :: b.Node.replicas in
      List.iter (fun p -> Node.add_replica nd p) group;
      List.iter
        (fun p ->
          Overlay.send_task ov ~src:bootstrap ~dst:p ~bytes:16 (fun _ ->
              Node.add_replica (Overlay.node ov p) id))
        group;
      (* State transfer: the bootstrap ships its data to the newcomer. *)
      let items = Store.to_list b.Node.store in
      let bytes = Wire.items_bytes items in
      Overlay.send_task ov ~src:bootstrap ~dst:id ~bytes (fun _ ->
          List.iter (fun i -> ignore (Store.put nd.Node.store i)) items;
          joined := true));
  ignore (Sim.run_until (Overlay.sim ov) (fun () -> !joined)) (* srclint: allow blocking-wait *);
  !joined

let repair_refs ov =
  let arr =
    Array.of_list (List.filter (fun (nd : Node.t) -> Overlay.Oracle.alive ov nd.Node.id) (Overlay.nodes ov)) (* srclint: allow oracle item-19 *)
  in
  Array.sort (fun (a : Node.t) (b : Node.t) -> Bitkey.compare a.path b.path) arr;
  List.iter
    (fun (nd : Node.t) ->
      if Overlay.Oracle.alive ov nd.id (* srclint: allow oracle item-19 *) then begin
        let cands = lazy (candidates arr nd.path) in
        Array.iteri
          (fun l refs ->
            if Array.length refs = 0 || not (Array.for_all (Overlay.Oracle.alive ov) refs) (* srclint: allow oracle item-19 *) then
              fill_level ov ~rng:(Overlay.rng ov) arr (Lazy.force cands).(l) nd l)
          nd.refs
      end)
    (Overlay.nodes ov)

(* ------------------------------------------------------------------ *)
(* Decentralized bootstrap                                             *)

let random_probe_key rng =
  (* Mix printable and raw-byte keys to probe all of key space. *)
  let len = 1 + Rng.int rng 12 in
  String.init len (fun _ -> Char.chr (Rng.int rng 256))

type bootstrap_report = {
  rounds_run : int;
  exchanges : int;
  final_depth : int;
  coverage_ok : bool;
}

let item_region_pred (nd : Node.t) (i : Store.item) = Node.covers nd i.Store.key

(* One pairwise meeting, executed at [b]'s site. Returns bytes moved (for
   the reply-message accounting). *)
let do_exchange ov ~config ~split_threshold a_id b_id =
  let na = Overlay.node ov a_id and nb = Overlay.node ov b_id in
  let rng = Overlay.rng ov in
  let moved_bytes = ref 0 in
  let transfer items (dst : Node.t) =
    moved_bytes := !moved_bytes + Wire.items_bytes items;
    List.iter
      (fun (i : Store.item) ->
        if Node.covers dst i.Store.key then ignore (Store.put dst.store i)
        else
          (* Neither side covers it any more: hand it back to the network.
             Routing can fail while tables are still forming — then park
             the item at [dst] (misplaced, not lost); a later exchange
             will move it along. *)
          Overlay.insert ov ~origin:dst.id ~key:i.key ~item_id:i.item_id ~payload:i.payload
            ~version:i.version
            ~k:(fun r -> if not r.Overlay.complete then ignore (Store.put dst.store i))
            ())
      items
  in
  (* Items parked here by earlier failed handoffs: try to route them home
     again now that tables have grown. *)
  let flush (nd : Node.t) =
    let misplaced = Store.filter_partition nd.store (item_region_pred nd) in
    transfer misplaced nd
  in
  flush na;
  flush nb;
  (* Stale replica links: drop them when paths have diverged. *)
  if List.mem b_id na.replicas && not (Bitkey.equal na.path nb.path) then begin
    Node.remove_replica na b_id;
    Node.remove_replica nb a_id
  end;
  let l = Bitkey.common_prefix_len na.path nb.path in
  let la = Bitkey.length na.path and lb = Bitkey.length nb.path in
  if l = la && l = lb then begin
    (* Identical paths: split if overloaded, otherwise replicate. *)
    let data = Store.size na.store + Store.size nb.store in
    let group = 2 + List.length na.replicas + List.length nb.replicas in
    let boundary =
      (* The pairwise protocol must pick a boundary every other pair at
         the same trie position would also pick, without coordination —
         only the deterministic region midpoint has that property
         (data-dependent medians would fork the trie and create routing
         loops). Data-aware boundaries are the job of the separate
         load-balancing protocol (ref [2]), modeled by {!oracle}. *)
      if (data > split_threshold || group > 2 * config.Config.replication)
         && la < max_depth
      then begin
        let lo, hi = Node.region na in
        midpoint lo hi
      end
      else None
    in
    match boundary with
    | Some b ->
      Node.remove_replica na b_id;
      Node.remove_replica nb a_id;
      Node.extend na ~bit:false ~boundary:b;
      Node.extend nb ~bit:true ~boundary:b;
      Node.add_ref na ~level:la b_id ~cap:config.Config.refs_per_level;
      Node.add_ref nb ~level:la a_id ~cap:config.Config.refs_per_level;
      let out_a = Store.filter_partition na.store (item_region_pred na) in
      let out_b = Store.filter_partition nb.store (item_region_pred nb) in
      transfer out_a nb;
      transfer out_b na
    | None ->
      Node.add_replica na b_id;
      Node.add_replica nb a_id;
      (* Anti-entropy between fresh replicas. *)
      let a_items = Store.to_list na.store and b_items = Store.to_list nb.store in
      let to_b = List.filter (Store.put nb.store) a_items in
      let to_a = List.filter (Store.put na.store) b_items in
      moved_bytes := !moved_bytes + Wire.items_bytes to_b + Wire.items_bytes to_a
  end
  else if l = la then begin
    (* [na]'s path is a prefix of [nb]'s: [na] specializes to the side of
       [nb]'s boundary that [nb] does not cover. *)
    let bbit = Bitkey.get nb.path la in
    Node.extend na ~bit:(not bbit) ~boundary:nb.splits.(la);
    Node.add_ref na ~level:la b_id ~cap:config.Config.refs_per_level;
    Node.add_ref nb ~level:la a_id ~cap:config.Config.refs_per_level;
    let out_a = Store.filter_partition na.store (item_region_pred na) in
    transfer out_a nb
  end
  else if l = lb then begin
    let abit = Bitkey.get na.path lb in
    Node.extend nb ~bit:(not abit) ~boundary:na.splits.(lb);
    Node.add_ref nb ~level:lb a_id ~cap:config.Config.refs_per_level;
    Node.add_ref na ~level:lb b_id ~cap:config.Config.refs_per_level;
    let out_b = Store.filter_partition nb.store (item_region_pred nb) in
    transfer out_b na
  end
  else begin
    (* Paths diverge at level l: mutual references, plus ref gossip for
       shallower levels to densify routing tables. *)
    Node.add_ref na ~level:l b_id ~cap:config.Config.refs_per_level;
    Node.add_ref nb ~level:l a_id ~cap:config.Config.refs_per_level;
    for i = 0 to l - 1 do
      (match Node.refs_at nb i with
      | [||] -> ()
      | refs -> Node.add_ref na ~level:i (Rng.pick rng refs) ~cap:config.Config.refs_per_level);
      match Node.refs_at na i with
      | [||] -> ()
      | refs -> Node.add_ref nb ~level:i (Rng.pick rng refs) ~cap:config.Config.refs_per_level
    done
  end;
  !moved_bytes

let bootstrap sim ~latency ~rng ?drop ~config ~n ~initial_data ?(rounds = 30)
    ?(split_threshold = 16) ?(groups = 1) ?(merge_at = 0) () =
  if n < 2 then invalid_arg "Build.bootstrap: n < 2";
  if groups < 1 then invalid_arg "Build.bootstrap: groups < 1";
  let rng = Rng.split rng in
  let ov = Overlay.create sim ~latency ~rng ?drop ~config () in
  let _nodes = List.init n (fun i -> Overlay.add_node ov i) in
  List.iter
    (fun (id, items) ->
      let nd = Overlay.node ov id in
      List.iter (fun i -> ignore (Store.put nd.Node.store i)) items)
    initial_data;
  let exchanges = ref 0 in
  let meet_rng = Rng.split rng in
  (* Group g = ids in [g*n/groups, (g+1)*n/groups): before [merge_at]
     rounds, peers only meet within their group — modeling independently
     built overlays that later merge ("merging of two, formerly
     independent, overlays", paper §2). The deterministic midpoint split
     rule makes the groups' tries mutually consistent, so the merge is
     just further pairwise exchanges. *)
  let group_of a = a * groups / n in
  let pick_partner round a =
    if groups = 1 || round >= merge_at then (a + 1 + Rng.int meet_rng (n - 1)) mod n
    else begin
      let g = group_of a in
      let lo = g * n / groups and hi = ((g + 1) * n / groups) - 1 in
      let size = hi - lo + 1 in
      if size < 2 then a
      else begin
        let b = lo + Rng.int meet_rng size in
        if b = a then lo + ((b + 1 - lo) mod size) else b
      end
    end
  in
  for round = 0 to rounds - 1 do
    let at = float_of_int round *. 200.0 in
    for a = 0 to n - 1 do
      Sim.schedule_at sim ~time:(at +. Rng.float_in meet_rng 0.0 100.0) (fun () ->
          if Overlay.Oracle.alive ov a (* srclint: allow oracle item-9 *) then begin
            let b = pick_partner round a in
            if b <> a && Overlay.Oracle.alive ov b (* srclint: allow oracle item-9 *) then begin
              incr exchanges;
              Overlay.send_task ov ~src:a ~dst:b ~bytes:64 (fun _ ->
                  let moved = do_exchange ov ~config ~split_threshold a b in
                  (* Reply carrying the exchanged data (accounting). *)
                  Overlay.send_task ov ~src:b ~dst:a ~bytes:moved (fun _ -> ()))
            end
          end)
    done
  done;
  Sim.run_all sim (* srclint: allow blocking-wait *);
  let coverage_ok =
    let probe_rng = Rng.create 0xBEEF in
    let ok = ref true in
    for _ = 1 to 128 do
      let key = random_probe_key probe_rng in
      if Overlay.Oracle.responsible ov key = [] (* srclint: allow oracle driver *) then ok := false
    done;
    !ok
  in
  (ov, { rounds_run = rounds; exchanges = !exchanges; final_depth = Overlay.depth ov; coverage_ok })
