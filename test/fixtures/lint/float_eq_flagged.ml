(* float-eq: exact =/<> against a float constant *)
let literal_second x = if x = 1.0 then 1 else 0
let literal_first x = if 1.0 = x then 1 else 0
let guard ready x = ready && x = 0.5
let not_equal x = x <> 0.
