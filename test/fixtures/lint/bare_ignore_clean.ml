let f x = x + 1
let typed_let () = let (_ : int) = f 1 in ()
let variable x = ignore x

type r = { field : int }

let field_read r = ignore r.field

let suppressed () =
  (* thunk result unused -- lint: allow bare-ignore *)
  ignore (f 2)

let doc = "ignore (f x)"
