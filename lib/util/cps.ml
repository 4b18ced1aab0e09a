let rec fold f acc xs ~k =
  match xs with
  | [] -> k acc
  | x :: rest -> f acc x ~k:(fun acc -> fold f acc rest ~k)

let map f xs ~k =
  fold (fun acc x ~k -> f x ~k:(fun y -> k (y :: acc))) [] xs ~k:(fun ys -> k (List.rev ys))

let all f xs ~k =
  match xs with
  | [] -> k []
  | _ ->
    let results = Array.make (List.length xs) None in
    let outstanding = ref (Array.length results) in
    List.iteri
      (fun i x ->
        f x ~k:(fun y ->
            results.(i) <- Some y;
            decr outstanding;
            if !outstanding = 0 then k (Array.to_list (Array.map Option.get results))))
      xs
