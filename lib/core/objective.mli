(** The optimization objective (paper eq. (7)): Cost = μ + α·σ, maximized
    over outputs. *)

type t

val create : alpha:float -> t
(** Raises on negative α. *)

val mean_delay : t
(** α = 0 — the "Original" mean-delay baseline. *)

val for_yield : percentile:float -> t
(** α = z_p: minimizes the p-quantile of delay (the period at which a
    fraction p of dies meets timing). Requires 0.5 < p < 1. *)

val alpha : t -> float

val cost_of_moments : t -> Numerics.Clark.moments -> float

(* statflow: safe — the per-output cost form test_core pins *)
val cost_of_outputs :
  t -> (Netlist.Circuit.id -> Numerics.Clark.moments) -> Netlist.Circuit.id list ->
  float
(** Max per-output cost; raises on an empty output list. *)

val cost_of_rv :
  ?exact:bool ->
  t ->
  (Netlist.Circuit.id -> Numerics.Clark.moments) ->
  Netlist.Circuit.id list ->
  float
(** Cost of the blended RV_O (fast Clark max over the outputs) — sensitive
    to every near-critical output, unlike the max of per-output costs. *)

val circuit_cost : t -> Ssta.Fullssta.t -> float
(** Cost of RV_O from a FULLSSTA annotation. *)

val pp : t Fmt.t
