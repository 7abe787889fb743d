(** Error function [erf] — reference implementation plus the paper's fast
    CRC quadratic approximation used by the FASSTA inner engine. *)

val exact : float -> float
(** [exact x] is erf(x) via Abramowitz & Stegun 7.1.26 (|error| ≤ 1.5e-7). *)

(* statflow: safe — complement of the exact erf; the numerics tests pin it *)
val erfc : float -> float
(** [erfc x = 1 - exact x]. *)

(* statflow: safe — the paper's quadratic erf; tests pin its shape *)
val quadratic : float -> float
(** The CRC quadratic erf approximation (accurate to two decimal places),
    derived from {!phi_quadratic} via erf(x) = 2Φ(x√2) − 1. *)

val phi_quadratic : float -> float
(** The CRC quadratic for the standard-normal CDF Φ itself:
    Φ(x) ≈ 0.5 + 0.1·x·(4.4 − x) on [0, 2.2], 0.99 on (2.2, 2.6],
    saturating at 1 beyond 2.6 (odd-extended below 0). *)

val phi_saturation_point : float
(** 2.6 — the sigma-units argument beyond which {!phi_quadratic} is exactly
    0 or 1; the paper's cutoff in conditions (5)/(6). *)

val max_quadratic_error : ?bound:float -> ?samples:int -> unit -> float
(** Largest |quadratic x − exact x| over a uniform grid on [-bound, bound].
    Defaults: bound 4.0, 4001 samples. *)
