(** Smooth weighted round-robin.

    The classic interleaving WRR (as in nginx): each pick adds every item's
    weight to its accumulator, selects the largest accumulator, and deducts
    the weight total from the winner.  Over any window of picks each item is
    selected in proportion to its (current) weight, and selections are
    maximally spread out — exactly the rotate-through-ports behaviour
    Clove-ECN wants for flowlets. *)

type t

val create : weights:float array -> t
(** Raises [Invalid_argument] on an empty array or non-positive total. *)

val pick : t -> int
(** Index of the next selection. *)

val set_weight : t -> int -> float -> unit
(** Weights below 0 are clamped to 0; at least one weight must stay
    positive overall for [pick] to be meaningful. *)

val weight : t -> int -> float
val weights : t -> float array
(** A copy of the current weights. *)

val size : t -> int
val normalize : t -> unit
(** Scale weights to sum to 1 (no effect on pick proportions). *)

val set_uniform : t -> unit
(** Every weight becomes [1 / size]. *)

val decay_flagged : t -> flags:bool array -> decay:float -> unit
(** Scale each flagged weight by [1 - decay]. *)

val recover_flagged : t -> flags:bool array -> rate:float -> unit
(** Move each flagged weight below [1 / size] the fraction [rate] of the
    way back up to it.  Like {!shift}, these bulk updates exist so a
    per-tick sweep makes one call, not a boxed float call per item; none
    normalizes. *)

val shift : t -> int -> cut_frac:float -> floor:float -> targets:bool array -> unit
(** [shift t i ~cut_frac ~floor ~targets] cuts item [i]'s weight by the
    fraction [cut_frac], never below [floor], spreads the removed weight
    equally over the items flagged in [targets] (which must not flag
    [i]), then {!normalize}s.  With no item flagged only the
    normalization happens.  Allocation-free: a congestion update is one
    call, not a cross-module float call per item. *)
