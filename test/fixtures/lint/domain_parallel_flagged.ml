(* sema-domain-parallel: multicore primitives outside the whitelist *)
let spawn work = Domain.spawn work
let lock = Mutex.create ()
let bump counter = Atomic.fetch_and_add counter 1
let wake cv = Condition.broadcast cv
let reset (counter : int Atomic.t) = Atomic.set counter 0
