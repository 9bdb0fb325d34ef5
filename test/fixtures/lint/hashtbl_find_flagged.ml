(* hashtbl-find: the raising lookup, qualified and through a local open *)
let lookup tbl k = Hashtbl.find tbl k
let opened tbl k = Hashtbl.(find tbl k)
