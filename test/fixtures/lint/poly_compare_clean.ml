let sort_ints xs = List.sort Int.compare xs

(* a user-defined compare shadows the polymorphic one *)
let compare a b = Int.compare a b
let sort xs = List.sort compare xs

(* a labelled compare argument is whatever the caller passes *)
let sort_by ~compare xs = List.sort compare xs
let sorted xs = sort_by ~compare xs
