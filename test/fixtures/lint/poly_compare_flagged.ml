(* poly-compare: Stdlib.compare passed, applied, and qualified *)
let sort xs = List.sort compare xs
let cmp (a : int) b = compare a b
let qualified (a : string) b = Stdlib.compare a b
