(* reading a published value is not coordination *)
let read (counter : int Atomic.t) = Atomic.get counter

(* calls into the pool are not calls into Domain *)
let squares xs = Engine.Domain_pool.run (fun x -> x * x) xs

(* harness counter -- lint: allow sema-domain-parallel *)
let bump counter = Atomic.fetch_and_add counter 1
