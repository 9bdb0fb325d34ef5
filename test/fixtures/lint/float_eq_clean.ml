let binding = 1.0
let below (t : float) = if t <= 0.0 then 0 else 1
let int_equality x = if x = 10 then 1 else 0
let tolerance x = Float.abs (x -. 1.0) < 1e-9

let exact_multiple x =
  (* an exact remainder is the intent -- lint: allow float-eq *)
  Float.rem x 0.5 = 0.
