let f x = x + 1

(* bare-ignore: a computed result dropped, in every spelling *)
let paren () = ignore (f 1)

let multiline () =
  ignore
    (f 2)

let apply_op () = ignore @@ f 3
let pipe () = f 4 |> ignore
