(* Growable circular FIFO, padded with a caller-supplied dummy.

   Backs the tagged event path: a link's in-flight propagation
   queue and a switch's pipeline both deliver strictly in FIFO order
   (constant per-hop delay), so the packet a tagged event refers to is
   always the oldest queued one — no per-event closure capture needed.
   [push]/[pop] allocate nothing once the ring has grown to its
   steady-state size. *)

type 'a t = {
  mutable buf : 'a array;
  dummy : 'a;
  mutable head : int; (* index of oldest element *)
  mutable len : int;
}

let create ?(capacity = 16) ~dummy () =
  let capacity = max capacity 1 in
  { buf = Array.make capacity dummy; dummy; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) t.dummy in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) mod cap)
  done;
  t.buf <- buf;
  t.head <- 0

let push t v =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) mod Array.length t.buf) <- v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let v = t.buf.(t.head) in
  t.buf.(t.head) <- t.dummy;
  t.head <- (t.head + 1) mod Array.length t.buf;
  t.len <- t.len - 1;
  v

let peek t =
  if t.len = 0 then invalid_arg "Ring.peek: empty";
  t.buf.(t.head)

let clear t =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    t.buf.((t.head + i) mod cap) <- t.dummy
  done;
  t.head <- 0;
  t.len <- 0
