let sorted_bindings ?(cmp = compare) tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let sorted_iter ?cmp f tbl = List.iter (fun (k, v) -> f k v) (sorted_bindings ?cmp tbl)
