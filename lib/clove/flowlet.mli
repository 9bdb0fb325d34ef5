(** Flowlet detection table (Section 3.2).

    A flowlet is a burst of packets of one flow separated from the next
    burst by at least the configured idle gap.  The table tracks, per flow
    key, the last-packet time and the path decision made for the current
    flowlet.  When the gap has elapsed, the caller's picker is consulted
    for a fresh decision and the flowlet counter increments. *)

type 'decision t

val create :
  sched:Scheduler.t -> gap:Sim_time.span -> dummy:'decision -> 'decision t
(** [dummy] pads the flat table's empty slots ({!Int_table} convention);
    any value of the decision type works and is never returned. *)

val touch : 'd t -> key:int -> pick:(flowlet_id:int -> 'd) -> 'd
(** Returns the current flowlet's decision, invoking [pick] exactly when a
    new flowlet starts (first packet of the flow, or idle gap elapsed).
    [flowlet_id] counts flowlets of this flow from 0. *)

val active_flowlet : 'd t -> key:int -> 'd
(** Current decision without refreshing the timestamp, or the table's
    [dummy] when the flow is not tracked. *)

val flowlets_started : 'd t -> int
(** Total new-flowlet events, across all flows. *)

val flows_tracked : 'd t -> int
(** Entries currently in the table (idle eviction shrinks this). *)

val peak_flows_tracked : 'd t -> int
(** High-water mark of [flows_tracked] over the table's lifetime —
    unaffected by idle eviction, so end-of-run reporting sees the real
    concurrency rather than whatever survived the last housekeeping. *)

val set_gap : 'd t -> Sim_time.span -> unit
val gap : 'd t -> Sim_time.span
val expire_older_than : 'd t -> Sim_time.span -> unit
(** Drop entries idle for longer than the given age (housekeeping). *)
