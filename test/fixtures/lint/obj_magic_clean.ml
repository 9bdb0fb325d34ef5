(* Obj.magic in a comment is prose, not code *)
let doc = "Obj.magic in a string literal is data, not code"

(* sentinel is never read back -- lint: allow obj-magic *)
let suppressed_above : int list = Obj.magic 0

let suppressed_same : int list = Obj.magic 0 (* lint: allow obj-magic *)
