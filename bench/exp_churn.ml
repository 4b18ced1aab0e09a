(* E10: robustness under failures + loose-consistency updates.

   Paper (§3): the storage works "even if [environments] are unreliable
   and highly dynamic"; §2: "P-Grid comes with an update functionality
   with lose [loose] consistency guarantees [4]".

   Part A: fractions of peers are killed; we measure lookup success and
   range completeness as a function of failure rate and replication
   (averaged over 3 independent trials — with replication 1 a single
   unlucky death can erase a whole attribute region, so single runs are
   noisy).

   Part B: versioned updates reach the responsible peer and are pushed to
   a bounded rumor fanout; the replicas the rumor misses converge through
   anti-entropy rounds (the loose-consistency guarantee of ref [4]). Its
   delete row kills one replica while a delete runs, revives it and runs
   anti-entropy until the group's digests stop changing. A delete is a
   tombstone write, so the verdict is computed from the replicas that
   still hold the item: any holder means anti-entropy undid the delete,
   and the experiment exits non-zero. *)

module Rng = Unistore_util.Rng
module Value = Unistore.Value
module Triple = Unistore.Triple
module Tstore = Unistore_triple.Tstore
module Overlay = Unistore_pgrid.Overlay
module Node = Unistore_pgrid.Node
module Gossip = Unistore_pgrid.Gossip
module Keys = Unistore_triple.Keys
module Publications = Unistore_workload.Publications

let trials = 3

let run_failures () =
  Common.subsection "A: query success under peer failures (mean of 3 trials)";
  let rows = ref [] in
  List.iter
    (fun replication ->
      List.iter
        (fun kill_frac ->
          let ok_total = ref 0 and probes_total = ref 0 and repaired_total = ref 0 in
          let recall_total = ref 0 and expect_total = ref 0 in
          for trial = 1 to trials do
            let store, ds =
              Common.build_pubs ~peers:64 ~authors:40 ~replication ~qgrams:false
                ~seed:(101 + (replication * 10) + trial)
                ()
            in
            let ts = Unistore.tstore store in
            let rng = Rng.create (1000 + trial) in
            let victims =
              Rng.sample rng
                (int_of_float (kill_frac *. 64.0))
                (List.init 63 (fun idx -> idx + 1) (* never kill the querying origin 0 *))
            in
            Unistore.kill_peers store victims;
            let probes = Rng.sample rng 50 ds.Publications.triples in
            let measure_lookups ok_counter =
              List.iter
                (fun (tr : Triple.t) ->
                  incr probes_total;
                  let found, (r : Unistore_triple.Dht.result) =
                    Common.await (Unistore.sim store) (fun k ->
                        Tstore.by_attr_value ts ~origin:0 ~attr:tr.Triple.attr tr.Triple.value ~k)
                  in
                  if r.complete && List.exists (fun x -> Triple.equal x tr) found then
                    incr ok_counter)
                probes
            in
            measure_lookups ok_total;
            let expect =
              List.length
                (List.filter
                   (fun (tr : Triple.t) -> String.equal tr.Triple.attr "age")
                   ds.Publications.triples)
            in
            let got, _ =
              Common.await (Unistore.sim store) (fun k ->
                  Tstore.by_attr_range ts ~origin:0 ~attr:"age" ~lo:(Value.I 0) ~hi:(Value.I 200)
                    ~k)
            in
            recall_total := !recall_total + List.length got;
            expect_total := !expect_total + expect;
            (* Now let routing-table maintenance stabilize and retry. *)
            (match Unistore.pgrid store with
            | Some ov -> Unistore_pgrid.Build.repair_refs ov
            | None -> ());
            probes_total := !probes_total - List.length probes (* count each probe once *);
            measure_lookups repaired_total
          done;
          rows :=
            [
              Common.i replication;
              Common.pct kill_frac;
              Common.pct (float_of_int !ok_total /. float_of_int !probes_total);
              Common.pct (float_of_int !repaired_total /. float_of_int !probes_total);
              Common.pct (float_of_int !recall_total /. float_of_int !expect_total);
            ]
            :: !rows)
        [ 0.0; 0.1; 0.3; 0.5 ])
    [ 1; 2; 4 ];
  Common.print_table
    [ "replication"; "killed"; "lookup ok"; "after repair"; "range recall" ]
    (List.rev !rows)

(* The delete row: one replica of [key]'s group is down while the item
   is deleted from outside the group, then revived. Returns the replicas
   that hold the item live once anti-entropy changes nothing more. *)
let run_delete store ov ~key =
  let holders () =
    List.length (List.filter (fun (_, v) -> v <> None) (Gossip.replica_versions ov ~key ~item_id:"it"))
  in
  let group = List.map (fun (nd : Node.t) -> nd.Node.id) (Overlay.Oracle.responsible ov key) in
  let down = List.nth group (List.length group - 1) in
  let origin = List.find (fun id -> not (List.mem id group)) (List.init 32 Fun.id) in
  Overlay.kill ov down;
  let r = Common.await (Overlay.sim ov) (fun k -> Overlay.delete ov ~origin ~key ~item_id:"it" ~k) in
  assert r.Overlay.complete;
  Unistore.settle store;
  Overlay.revive ov down;
  let after_delete = holders () in
  let digests () =
    List.map
      (fun (nd : Node.t) -> List.sort compare (Unistore_pgrid.Store.digest nd.Node.store))
      (Overlay.Oracle.responsible ov key)
  in
  let rec settle rounds =
    let before = digests () in
    if rounds >= 20 then rounds
    else begin
      Gossip.anti_entropy_round ov;
      Unistore.settle store;
      if digests () = before then rounds + 1 else settle (rounds + 1)
    end
  in
  let rounds = settle 0 in
  let after = holders () in
  Common.print_table
    [ "delete"; "replicas down"; "holders after delete"; "anti-entropy rounds"; "holders after" ]
    [ [ "tombstone"; Common.i 1; Common.i after_delete; Common.i rounds; Common.i after ] ];
  after

let run_updates () =
  Common.subsection "B: loose-consistency updates (rumor spreading + anti-entropy)";
  (* A large replica group so a bounded rumor fanout genuinely misses
     replicas. *)
  let store, _ = Common.build_pubs ~peers:32 ~authors:4 ~replication:8 ~qgrams:false ~seed:111 () in
  let ov = Option.get (Unistore.pgrid store) in
  let key = Keys.attr_value_key "probe" (Value.S "hot") in
  let r =
    Common.await (Overlay.sim ov) (fun k ->
        Overlay.insert ov ~origin:0 ~key ~item_id:"it" ~payload:"v0" ~k ())
  in
  assert r.Overlay.complete;
  Unistore.settle store;
  let group = List.length (Overlay.Oracle.responsible ov key) in
  Printf.printf "replica group size for the probed key: %d\n" group;
  let rows = ref [] in
  List.iter
    (fun rounds ->
      let version = rounds + 1 in
      let _ =
        Common.await (Overlay.sim ov) (fun k ->
            Overlay.update ov ~origin:(version mod 32) ~key ~item_id:"it"
              ~payload:(Printf.sprintf "v%d" version)
              ~version ~rounds ~k ())
      in
      Unistore.settle store;
      let after_rumor = Gossip.staleness ov ~key ~item_id:"it" ~version in
      let ae_rounds = ref 0 in
      while Gossip.staleness ov ~key ~item_id:"it" ~version > 0.0 && !ae_rounds < 10 do
        incr ae_rounds;
        Gossip.anti_entropy_round ov;
        Unistore.settle store
      done;
      rows :=
        [
          Common.i rounds;
          Common.pct after_rumor;
          Common.i !ae_rounds;
          Common.pct (Gossip.staleness ov ~key ~item_id:"it" ~version);
        ]
        :: !rows)
    [ 0; 1; 2; 3 ];
  Common.print_table
    [ "rumor rounds"; "stale after rumor"; "anti-entropy rounds"; "stale after" ]
    (List.rev !rows);
  run_delete store ov ~key

let run () =
  Common.section "E10: robustness and dynamicity"
    "\"robust, scalable and reliable ... even if they are unreliable and highly \
     dynamic\"; updates with loose consistency guarantees (ref [4])";
  run_failures ();
  let holders = run_updates () in
  if holders = 0 then
    Printf.printf
      "\nverdict: reproduced: replication keeps lookups and ranges near-complete \
       under heavy failure rates (replication 1 loses whatever its dead peers \
       owned); rumor rounds cut post-update staleness and anti-entropy closes the \
       rest; a delete that a replica missed stays deleted (0 holders after \
       anti-entropy)\n"
  else begin
    Printf.printf
      "\nverdict: NOT reproduced: anti-entropy undid a delete (%d replicas hold the \
       deleted item)\n"
      holders;
    exit 1
  end
