(* How fast the host runs right now, from a fixed CPU workload that
   shares no code with the system under test. On a shared host the CPU
   time of the same work drifts by 10-20% over minutes as neighbours
   come and go; timing this workload next to every round and scaling
   the run's CPU seconds by its median time tracks that drift. Two
   kinds of work, as the workloads mix them: a dependent random walk
   over an 8 MB array with string-table lookups (memory latency), and
   building a hash table, sorting a list and filling a map (allocation
   and garbage collection). *)

module SMap = Map.Make (String)

let size = 1 lsl 20

(* One cycle through the whole array, so the walk never settles into a
   cached loop. *)
let walk =
  lazy
    (let rng = Random.State.make [| 7 |] in
     let order = Array.init size Fun.id in
     for i = size - 1 downto 1 do
       let j = Random.State.int rng (i + 1) in
       let x = order.(i) in
       order.(i) <- order.(j);
       order.(j) <- x
     done;
     let next = Array.make size 0 in
     Array.iteri (fun i x -> next.(x) <- order.((i + 1) mod size)) order;
     next)

let keys = lazy (Array.init 4096 (fun i -> Printf.sprintf "key-%06d" (i * 7919)))

let table =
  lazy
    (let t = Hashtbl.create 8192 in
     Array.iteri (fun i k -> Hashtbl.replace t k i) (Lazy.force keys);
     t)

let memory () =
  let next = Lazy.force walk and keys = Lazy.force keys and table = Lazy.force table in
  let p = ref 0 in
  for _ = 1 to 750_000 do
    p := next.(!p)
  done;
  let found = ref 0 in
  for i = 1 to 375_000 do
    found := !found + Hashtbl.find table keys.(i land 4095)
  done;
  !p + !found

let allocation () =
  let tbl = Hashtbl.create 4096 in
  for i = 0 to 29_999 do
    let k = string_of_int (i * 7919 mod 100_003) in
    Hashtbl.replace tbl k (String.length k + i)
  done;
  let sorted = List.sort compare (List.init 75_000 (fun i -> (i * 2654435761) land 0xFFFF)) in
  let m =
    List.fold_left
      (fun m i -> SMap.add (string_of_int (i land 4095)) i m)
      SMap.empty
      (List.filteri (fun i _ -> i mod 4 = 0) sorted)
  in
  Hashtbl.length tbl + SMap.cardinal m

(* CPU seconds of one slice of the fixed workload. *)
let slice () =
  let c0 = Span.cpu_s () in
  ignore (Sys.opaque_identity (memory () + allocation ()));
  Span.cpu_s () -. c0

(* What a slice takes on a steady host of the kind the benchmark was
   written on (a 2-core 2 GHz Xeon VM); CPU metrics are stated in
   seconds of that host. *)
let nominal_s = 0.13

(* Host speed over a run, as the median slice over [nominal_s]: 1.0 on
   the nominal host, 1.2 when the same work takes 20% longer. *)
let factor slices = Metric.median slices /. nominal_s
