type t = { weights : float array; current : float array }

let create ~weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Wrr.create: empty";
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Wrr.create: non-positive total weight";
  Array.iter (fun w -> if w < 0.0 then invalid_arg "Wrr.create: negative weight") weights;
  { weights = Array.copy weights; current = Array.make n 0.0 }

let pick t =
  let n = Array.length t.weights in
  let total = ref 0.0 in
  let best = ref 0 in
  for i = 0 to n - 1 do
    t.current.(i) <- t.current.(i) +. t.weights.(i);
    total := !total +. t.weights.(i);
    if t.current.(i) > t.current.(!best) then best := i
  done;
  t.current.(!best) <- t.current.(!best) -. !total;
  !best

(* inlined: called per path from the bulk updates below, and a float
   argument to a call that is not inlined is boxed *)
let[@inline] set_weight t i w = t.weights.(i) <- Float.max 0.0 w
let weight t i = t.weights.(i)
let weights t = Array.copy t.weights
let size t = Array.length t.weights

(* the same left fold as [Array.fold_left ( +. ) 0.0], as a loop: the
   polymorphic fold boxes every partial sum *)
let normalize t =
  let w = t.weights in
  let total = ref 0.0 in
  for i = 0 to Array.length w - 1 do
    total := !total +. w.(i)
  done;
  let total = !total in
  if total > 0.0 then
    for i = 0 to Array.length w - 1 do
      w.(i) <- w.(i) /. total
    done

let set_uniform t =
  let w = t.weights in
  let u = 1.0 /. float_of_int (Array.length w) in
  for i = 0 to Array.length w - 1 do
    set_weight t i u
  done

let decay_flagged t ~flags ~decay =
  let w = t.weights in
  let keep = 1.0 -. decay in
  for i = 0 to Array.length w - 1 do
    if flags.(i) then set_weight t i (w.(i) *. keep)
  done

let recover_flagged t ~flags ~rate =
  let w = t.weights in
  let u = 1.0 /. float_of_int (Array.length w) in
  for i = 0 to Array.length w - 1 do
    if flags.(i) then begin
      let wi = w.(i) in
      if wi < u then set_weight t i (wi +. (rate *. (u -. wi)))
    end
  done

let shift t i ~cut_frac ~floor ~targets =
  let w = t.weights in
  let n = Array.length w in
  let count = ref 0 in
  for j = 0 to n - 1 do
    if targets.(j) then incr count
  done;
  if !count > 0 then begin
    let wi = w.(i) in
    let remaining = Float.max floor (wi -. (wi *. cut_frac)) in
    let share = (wi -. remaining) /. float_of_int !count in
    set_weight t i remaining;
    for j = 0 to n - 1 do
      if targets.(j) then set_weight t j (w.(j) +. share)
    done
  end;
  normalize t
