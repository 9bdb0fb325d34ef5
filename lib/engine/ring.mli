(** Growable circular FIFO padded with a caller-supplied dummy.

    Companion to the tagged event path: when deliveries are
    strictly FIFO (constant per-hop delay), the payload a tagged event
    refers to is always the oldest queued element, so events need not
    capture it in a closure.  [push]/[pop] are allocation-free at steady
    state. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Oldest element; raises [Invalid_argument] if empty.  The vacated
    slot is reset to the dummy. *)

val peek : 'a t -> 'a
(** Oldest element without removing it; raises if empty. *)

val clear : 'a t -> unit
