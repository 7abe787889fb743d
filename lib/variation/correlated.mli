(** Hierarchical correlated-variation structure (global + regional +
    independent residual) for the Monte-Carlo engine. *)

type t = { global_share : float; regional_share : float; regions : int }

val independent : t

val create :
  ?global_share:float -> ?regional_share:float -> ?regions:int -> unit -> t
(** Shares must be non-negative and sum to at most 1. *)

val residual_share : t -> float

val draw : t -> Numerics.Rng.t -> count:int -> float array
(** One die: a standard-normal deviation per gate, correlated per the
    structure. *)

(* statflow: safe — the structure's correlation the variation tests pin *)
val correlation : t -> gate_a:int -> gate_b:int -> float
(** Implied pairwise correlation. *)

val pp : t Fmt.t
