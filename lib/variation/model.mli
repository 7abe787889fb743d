(** Two-component gate-delay variation model (systematic ∝ delay, shrinking
    with drive strength; unsystematic random floor). *)

type t = {
  systematic : float;
  random_floor : float;
  tau_ref : float;
  size_exponent : float;
}

val create :
  ?systematic:float ->
  ?random_floor:float ->
  ?tau_ref:float ->
  ?size_exponent:float ->
  unit ->
  t
(** Defaults: k_sys 0.8, k_rand 0.15, tau 5.0 ps, size exponent 1.0 (the
    paper's "variations inversely proportional to their dimensions") —
    chosen so the mean-optimized Table-1 suite starts in the paper's σ/μ
    range. *)

val default : t

val sigma : t -> delay:float -> strength:float -> float
(* statflow: safe — one sigma term the variation tests pin *)
val systematic_sigma : t -> delay:float -> strength:float -> float
(* statflow: safe — one sigma term the variation tests pin *)
val random_sigma : t -> float

val delay_moments : t -> delay:float -> strength:float -> Numerics.Clark.moments

val coupling : t -> float
(** The paper's c in Δσ ≈ c·Δμ used when ranking WNSS inputs (§4.4). *)

val pp : t Fmt.t
