let rec fold f acc xs ~k =
  match xs with
  | [] -> k acc
  | x :: rest -> f acc x ~k:(fun acc -> fold f acc rest ~k)

let map f xs ~k =
  fold (fun acc x ~k -> f x ~k:(fun y -> k (y :: acc))) [] xs ~k:(fun ys -> k (List.rev ys))
