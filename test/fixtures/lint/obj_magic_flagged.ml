(* obj-magic: one unsafe sentinel *)
let sentinel : int list = Obj.magic 0
