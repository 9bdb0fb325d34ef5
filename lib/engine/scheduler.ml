(* Discrete-event scheduler: timing wheel + overflow heap, with one
   tagged (zero-allocation) dispatch path for steady-state events.

   Two structures hold pending events.  Short-horizon timers — link
   hops, switch pipeline latencies, TCP RTO/TLP, flowlet gaps — land in
   a hierarchical {!Timer_wheel}; far-future events (quiesce horizons,
   long idle timers) overflow into the {!Event_queue} binary heap.  Both
   draw sequence numbers from one scheduler-owned counter, and the wheel
   flushes whole windows into the heap before the clock can reach them,
   so pop order is exactly that of a single binary heap under the
   (time, born, src, seq) total order — byte-identical results, wheel on
   or off.  [born] is the insertion instant and [src] the owning
   component's construction-order id; together they make same-timestamp
   tie-breaking shard-invariant under PDES (see {!Event_queue}).

   Steady-state events avoid closures entirely: a component registers a
   handler kind once at construction ([register_kind]) and then
   schedules (kind, arg) pairs ([schedule_tag]).  Cancellable events are
   owner-held re-armable {!timer}s whose thunk is built once.

   Every queued event — tagged, closure or timer — is carried by a
   handle record from the scheduler's pool, and no handle ever escapes
   the scheduler: a fired handle returns to the pool at dispatch, a
   cancelled one when it is purged (its wheel slot flushes, a compaction
   sweeps it, or it pops dead).  A timer remembers the generation of the
   handle it armed; recycling bumps the generation, so a stale [disarm]
   is a no-op rather than a cancellation of some other event.

   Cancelled handles are purged lazily, and a compaction sweep runs when
   dead handles outnumber live ones (a TCP sender re-arming its RTO on
   every ack would otherwise grow the queue without bound). *)

(* Captured per-scheduler at [create].  Off, every event goes straight
   to the heap: the reference the wheel is property-tested against
   (same pop order, hence identical results). *)
let wheel_enabled = ref true

type handle = {
  mutable live : bool;
  mutable kind : int; (* -1 = closure or timer event; >= 0 = dispatch-table index *)
  mutable arg : int; (* operand for tagged events *)
  mutable src : int; (* closure and timer events: owning component (tie-break rank) *)
  mutable thunk : unit -> unit;
  mutable gen : int; (* bumped each time the handle returns to the pool *)
}

(* free handles, stack discipline; a record of its own so the purge
   predicate handed to the wheel and heap can close over it *)
type pool = { mutable free : handle array; mutable len : int }

(* Component ids for the (time, born, src, seq) event order.  The
   counter is domain-local: one scenario is always constructed on a
   single domain, so ids within a scenario follow construction order
   whatever other domains are doing (a parallel sweep builds unrelated
   scenarios concurrently; only relative order within one scheduler's
   events ever matters). *)
let src_key = Domain.DLS.new_key (fun () -> ref 0)

let fresh_src () =
  let r = Domain.DLS.get src_key in
  incr r;
  !r

type t = {
  id : int;
  mutable clock : Sim_time.t;
  mutable fired : int;
  queue : handle Event_queue.t;
  wheel : handle Timer_wheel.t;
  use_wheel : bool;
  mutable next_seq : int; (* shared by wheel and heap: one tie-break stream *)
  mutable dead : int; (* cancelled handles still queued *)
  mutable handlers : (int -> unit) array;
  mutable kind_srcs : int array; (* component id per registered kind *)
  mutable n_kinds : int;
  mutable cur_src : int; (* component id of the dispatching event; 0 at setup *)
  pool : pool;
  keep : handle -> bool; (* purge predicate; recycles what it rejects *)
  mutable wheel_scheduled : int;
  mutable heap_scheduled : int;
  mutable compactions : int;
}

(* distinguishes schedulers in the invariant auditor's per-clock
   monotonicity watermarks; scenarios may build several schedulers.
   Atomic because parallel sweeps build scenarios on several domains. *)
let next_id = Atomic.make 0

let nop () = ()

(* pads empty queue/wheel/pool slots; [live = false] so it is inert even
   if a bug ever dispatched it *)
let dummy_handle = { live = false; kind = -1; arg = 0; src = 0; thunk = nop; gen = 0 }

let nop_handler (_ : int) = ()

(* ---- handle pool ---- *)

let alloc_handle pool =
  if pool.len = 0 then { live = true; kind = -1; arg = 0; src = 0; thunk = nop; gen = 0 }
  else begin
    let n = pool.len - 1 in
    pool.len <- n;
    let h = pool.free.(n) in
    pool.free.(n) <- dummy_handle;
    h.live <- true;
    h
  end

let release_handle pool h =
  h.live <- false;
  h.thunk <- nop;
  h.gen <- h.gen + 1;
  if pool.len = Array.length pool.free then begin
    let free = Array.make (2 * pool.len) dummy_handle in
    Array.blit pool.free 0 free 0 pool.len;
    pool.free <- free
  end;
  pool.free.(pool.len) <- h;
  pool.len <- pool.len + 1

(* The wheel and the heap call their purge predicate exactly once on
   each entry they judge and never touch a rejected entry again, so the
   predicate itself hands a dead handle back to the pool. *)
let reclaim pool h =
  h.live
  ||
  (release_handle pool h;
   false)

let create () =
  let pool = { free = Array.make 32 dummy_handle; len = 0 } in
  let keep = reclaim pool in
  {
    id = 1 + Atomic.fetch_and_add next_id 1;
    clock = Sim_time.zero;
    fired = 0;
    queue = Event_queue.create ~dummy:dummy_handle ();
    wheel = Timer_wheel.create ~dummy:dummy_handle ~keep ();
    use_wheel = !wheel_enabled;
    next_seq = 0;
    dead = 0;
    handlers = Array.make 8 nop_handler;
    kind_srcs = Array.make 8 0;
    n_kinds = 0;
    cur_src = 0;
    pool;
    keep;
    compactions = 0;
    wheel_scheduled = 0;
    heap_scheduled = 0;
  }

let now t = t.clock

(* ---- dispatch table ---- *)

let register_kind t f =
  if t.n_kinds = Array.length t.handlers then begin
    let handlers = Array.make (2 * t.n_kinds) nop_handler in
    let kind_srcs = Array.make (2 * t.n_kinds) 0 in
    Array.blit t.handlers 0 handlers 0 t.n_kinds;
    Array.blit t.kind_srcs 0 kind_srcs 0 t.n_kinds;
    t.handlers <- handlers;
    t.kind_srcs <- kind_srcs
  end;
  let k = t.n_kinds in
  t.handlers.(k) <- f;
  t.kind_srcs.(k) <- fresh_src ();
  t.n_kinds <- k + 1;
  k

(* A component with several kinds (or the same logical event reachable
   through different kinds, like a wire delivery scheduled locally
   vs. injected across a PDES boundary) overrides the per-registration
   default so all its events share one rank. *)
let set_kind_src t ~kind ~src = t.kind_srcs.(kind) <- src

(* ---- enqueue ---- *)

let push_born t ~time_ns ~born_ns ~src h =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.use_wheel && Timer_wheel.add t.wheel ~time_ns ~born_ns ~src ~seq h then
    t.wheel_scheduled <- t.wheel_scheduled + 1
  else begin
    t.heap_scheduled <- t.heap_scheduled + 1;
    Event_queue.add_at_ns t.queue ~time_ns ~born_ns ~src ~seq h
  end

(* every locally scheduled event is born at the scheduler's own clock —
   exactly the instant the serial engine would have inserted it at *)
let push t ~time_ns ~src h =
  push_born t ~time_ns ~born_ns:(Sim_time.to_ns t.clock) ~src h

(* closures and timers rank under the component whose handler is
   executing: a component scheduling its own follow-ups *)
let push_thunk t ~time_ns f =
  let h = alloc_handle t.pool in
  h.kind <- -1;
  h.src <- t.cur_src;
  h.thunk <- f;
  push t ~time_ns ~src:t.cur_src h;
  h

let schedule_at t ~time f =
  if Sim_time.(time < t.clock) then
    invalid_arg "Scheduler.schedule_at: time in the past";
  let (_ : handle) = push_thunk t ~time_ns:(Sim_time.to_ns time) f in
  ()

let schedule t ~after f = schedule_at t ~time:(Sim_time.add t.clock after) f

let alloc_tagged t ~kind ~arg =
  let h = alloc_handle t.pool in
  h.kind <- kind;
  h.arg <- arg;
  h

let schedule_tag t ~after ~kind ~arg =
  let time_ns = Sim_time.to_ns t.clock + Sim_time.span_ns after in
  if time_ns < Sim_time.to_ns t.clock then
    invalid_arg "Scheduler.schedule_tag: time in the past";
  push t ~time_ns ~src:t.kind_srcs.(kind) (alloc_tagged t ~kind ~arg)

(* PDES boundary injection: a cross-shard event scheduled with the
   sending shard's insertion instant as its tie-break rank, so a
   same-timestamp tie against locally scheduled events resolves the way
   the serial engine's single insertion clock would have resolved it.
   [born_ns] may lie in this scheduler's past — that is the point — but
   the event time itself must not. *)
let inject_tag t ~time_ns ~born_ns ~kind ~arg =
  if time_ns < Sim_time.to_ns t.clock then
    invalid_arg "Scheduler.inject_tag: time in the past";
  if born_ns > time_ns then invalid_arg "Scheduler.inject_tag: born after fire";
  push_born t ~time_ns ~born_ns ~src:t.kind_srcs.(kind) (alloc_tagged t ~kind ~arg)

(* ---- timers & compaction ---- *)

(* Sweep dead handles out of both structures when they outnumber live
   ones (and are numerous enough to matter).  Compaction preserves every
   survivor's (time, born, src, seq), and pop order under a total order does not
   depend on heap layout, so this is invisible to the simulation. *)
let maybe_compact t =
  if t.dead > 64 && 2 * t.dead > Event_queue.size t.queue + Timer_wheel.size t.wheel
  then begin
    let swept =
      Event_queue.compact t.queue ~keep:t.keep + Timer_wheel.compact t.wheel
    in
    t.dead <- t.dead - swept;
    t.compactions <- t.compactions + 1
  end

(* An owner-held re-armable timer.  [h] is the handle of the latest
   arming and [gen] that handle's generation at the time: once the
   handle fires or is purged it returns to the pool with a bumped
   generation, so the pair stops matching and a late [disarm] cannot
   reach whatever event the recycled handle carries next. *)
type timer = { sched : t; fire : unit -> unit; mutable h : handle; mutable gen : int }

let timer sched fire =
  (* alloc-allow: a timer is built once per owner (a sender, a peer, a flow), never per arming *)
  { sched; fire; h = dummy_handle; gen = -1 }

let armed tm = tm.h.live && tm.h.gen = tm.gen

(* the handle stays queued, dead, until it is purged *)
let disarm tm =
  if armed tm then begin
    let t = tm.sched in
    tm.h.live <- false;
    tm.h.thunk <- nop;
    t.dead <- t.dead + 1;
    maybe_compact t
  end

let arm tm ~after =
  disarm tm;
  let t = tm.sched in
  let time_ns = Sim_time.to_ns t.clock + Sim_time.span_ns after in
  if time_ns < Sim_time.to_ns t.clock then invalid_arg "Scheduler.arm: time in the past";
  let h = push_thunk t ~time_ns tm.fire in
  tm.h <- h;
  tm.gen <- h.gen

let schedule_periodic t ~every f =
  if Sim_time.compare_span every Sim_time.zero_span <= 0 then
    invalid_arg "Scheduler.schedule_periodic: period must be positive";
  let rec tick () = if f () then schedule t ~after:every tick in
  schedule t ~after:every tick

(* ---- dequeue ---- *)

(* Make the heap top the global minimum: if the wheel might hold an
   earlier entry (its O(1) lower bound does not exceed the heap top),
   flush every window up to the heap top into the heap.  With an empty
   heap, flush just the earliest occupied window.  Either way the heap
   top afterwards precedes every entry still staged in the wheel. *)
let prepare t =
  if t.use_wheel && not (Timer_wheel.is_empty t.wheel) then begin
    let heap_min = Event_queue.min_time_ns t.queue in
    if Timer_wheel.min_bound_ns t.wheel <= heap_min then
      let purged =
        if heap_min = max_int then Timer_wheel.advance_next t.wheel ~into:t.queue
        else Timer_wheel.advance t.wheel ~upto_ns:heap_min ~into:t.queue
      in
      t.dead <- t.dead - purged
  end

let next_time_ns t =
  prepare t;
  Event_queue.min_time_ns t.queue

(* [step] minus the wheel flush, for [run_until], which just called
   [prepare] as part of its horizon check: fusing the two saves a
   second flush decision per event. *)
let step_prepared t =
  if Event_queue.is_empty t.queue then false
  else begin
    let time_ns = Event_queue.min_time_ns t.queue in
    let h = Event_queue.pop_unsafe t.queue in
    if !Analysis.Audit.on then
      Analysis.Audit.note_clock ~clock_id:t.id ~now_ns:time_ns;
    t.clock <- Sim_time.of_ns time_ns;
    t.fired <- t.fired + 1;
    if h.live then begin
      (* recycle before dispatch: the handler may schedule and reuse
         this very record, which is safe once its operands are copied out *)
      let k = h.kind in
      if k >= 0 then begin
        let a = h.arg in
        t.cur_src <- t.kind_srcs.(k);
        release_handle t.pool h;
        (* alloc-allow: dispatch-table fetch returns the per-component closure registered once at construction; the arrow-result rule over-approximates *)
        t.handlers.(k) a
      end
      else begin
        let f = h.thunk in
        t.cur_src <- h.src;
        release_handle t.pool h;
        f ()
      end
    end
    else begin
      t.dead <- t.dead - 1;
      release_handle t.pool h
    end;
    true
  end

let step t =
  prepare t;
  step_prepared t

(* the one drive loop: drains events with timestamps at most
   [until_ns]; the clock parks at the horizon when the next event lies
   beyond it, and an empty queue leaves the clock alone.  Allocation-
   free, so the PDES barrier loop can call it once per window —
   millions of windows per run. *)
let rec run_until t ~until_ns =
  prepare t;
  let time_ns = Event_queue.min_time_ns t.queue in
  if time_ns = max_int then ()
  else if time_ns > until_ns then t.clock <- Sim_time.of_ns until_ns
  else begin
    let (_ : bool) = step_prepared t in
    run_until t ~until_ns
  end

let run ?until t =
  let until_ns = match until with None -> max_int | Some h -> Sim_time.to_ns h in
  run_until t ~until_ns

(* ---- accounting ---- *)

let pending_events t = Event_queue.size t.queue + Timer_wheel.size t.wheel
let live_events t = pending_events t - t.dead
let dead_events t = t.dead
let events_fired t = t.fired
let wheel_scheduled t = t.wheel_scheduled
let heap_scheduled t = t.heap_scheduled
let wheel_occupancy t = Timer_wheel.size t.wheel
let heap_occupancy t = Event_queue.size t.queue
let compactions t = t.compactions
