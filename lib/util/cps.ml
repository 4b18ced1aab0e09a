let rec fold f acc xs ~k =
  match xs with
  | [] -> k acc
  | x :: rest -> f acc x ~k:(fun acc -> fold f acc rest ~k)

let map f xs ~k =
  fold (fun acc x ~k -> f x ~k:(fun y -> k (y :: acc))) [] xs ~k:(fun ys -> k (List.rev ys))

let window n f xs ~k =
  if n < 1 then invalid_arg "Cps.window";
  match xs with
  | [] -> k []
  | _ ->
    let results = Array.make (List.length xs) None in
    let outstanding = ref (Array.length results) in
    let next = ref xs and next_index = ref 0 and in_flight = ref 0 in
    (* Elements that answer inside [launch]'s loop leave the refill to
       it, so synchronous answers do not nest one start inside another. *)
    let launching = ref false in
    let rec launch () =
      launching := true;
      let rec start () =
        match !next with
        | x :: rest when !in_flight < n ->
          let i = !next_index in
          next := rest;
          incr next_index;
          incr in_flight;
          f x ~k:(fun y ->
              results.(i) <- Some y;
              decr in_flight;
              decr outstanding;
              if !outstanding = 0 then k (Array.to_list (Array.map Option.get results))
              else if not !launching then launch ());
          start ()
        | _ -> ()
      in
      start ();
      launching := false
    in
    launch ()

let all f xs ~k = window max_int f xs ~k

let start f =
  let answer = ref None and waiting = ref [] in
  f ~k:(fun y ->
      answer := Some y;
      let ks = List.rev !waiting in
      waiting := [];
      List.iter (fun k -> k y) ks);
  fun ~k -> match !answer with Some y -> k y | None -> waiting := k :: !waiting
