(** Certified one-step error constants for the FASSTA Clark max.

    [Numerics.Clark.max_fast] deviates from [max_exact] in exactly two ways:
    the 2.6-cutoff short circuit (the max collapses to the dominant operand,
    paper conditions (5)/(6)) and, in the blended branch, the CRC quadratic
    Φ replacing the reference Φ in the CDF weights. Both deviations scale
    linearly (mean) or quadratically (variance) with the spread
    a = sqrt(varA + varB), so each constant below is normalized by the
    appropriate power of the spread:

      |E_fast − E_exact|     ≤ k_mean · a
      |Var_fast − Var_exact| ≤ k_var  · a²

    The constants are computed once at startup from the reference erf by
    dense grid supremum plus an explicit padding that covers the grid
    resolution (via derivative bounds), the reference erf's own |error| ≤
    1.5e-7 (A&S 7.1.26), and float round-off — so they are certified upper
    bounds, not estimates. Derivations: DESIGN.md §9.2. *)

val eps_phi : float
(** Certified sup over all x of |Φ_quadratic(x) − Φ(x)| (≈ 5.3e-3). *)

val k_cutoff_mean : float
(** Mean constant when the cutoff branch fires (|α| ≥ 2.6): the Mills-ratio
    gap φ(2.6) − 2.6·Φ(−2.6), which is decreasing in |α| (≈ 1.5e-3). *)

val k_cutoff_var : float
(** Variance constant for the cutoff branch: certified sup over |α| ≥ 2.6 of
    Φ(−α) + α·e₁(α) + e₁(α)² with e₁ = φ − αΦ(−α) (≈ 8.5e-3). *)

val k_blend_mean : float
(** Mean constant for the blended branch: sup over |α| < 2.6 of
    |α·(Φ_quadratic − Φ)(α)| (≈ 1.4e-2). *)

val k_blend_var : float
(** Variance constant for the blended branch (≈ 4.5e-2). *)

val k_mean : float
(** max of the two mean constants — sound when the branch taken by the
    concrete run cannot be determined statically. *)

val k_var : float
(** max of the two variance constants. *)

val mean_step : certain_cutoff:bool -> spread_hi:float -> float
(** One max operation's certified mean-error contribution: the branch
    constant (cutoff when the certified α interval proves the cutoff fires,
    else the max over both branches) times the spread upper bound. *)

val var_step : certain_cutoff:bool -> spread_hi:float -> float
(** One max operation's certified variance-error contribution: the branch
    variance constant times spread_hi². *)

val sigma_step : certain_cutoff:bool -> spread_hi:float -> float
(** One max operation's certified sigma-error contribution:
    sqrt(k_var) · spread_hi, using |σf − σe| ≤ sqrt(|Vf − Ve|). *)
