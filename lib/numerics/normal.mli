(** Standard-normal density, distribution, and quantile functions. *)

val pdf : float -> float
(** Standard-normal density φ. *)

val cdf : float -> float
(** Standard-normal distribution Φ via the reference erf. *)

val cdf_fast : float -> float
(** Φ via the paper's quadratic erf approximation (FASSTA hot path). *)

val quantile : float -> float
(** Inverse of {!cdf} on (0, 1); raises [Invalid_argument] outside. *)

val cdf_at : mean:float -> sigma:float -> float -> float
(** CDF of N(mean, sigma²) at a point; a step function when [sigma <= 0]. *)

(* statflow: safe — a scaled normal quantile the numerics tests pin *)
val quantile_at : mean:float -> sigma:float -> float -> float
(** Quantile of N(mean, sigma²). *)

val sqrt_two : float
val sqrt_two_pi : float
