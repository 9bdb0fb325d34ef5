let lookup tbl k = Hashtbl.find_opt tbl k
let all tbl k = Hashtbl.find_all tbl k

let present tbl k =
  (* key inserted above -- lint: allow hashtbl-find *)
  Hashtbl.find tbl k
