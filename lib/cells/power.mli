(** Cell power model: dynamic energy per toggle and process-dependent
    sub-threshold leakage (fast dies leak more), backing the power-
    variability experiment the paper's §2.2 motivates. *)

type params = {
  supply_v : float;
  leakage_per_strength_nw : float;
  leakage_process_lambda : float;
}

val default_params : params

val dynamic_energy_fj : ?params:params -> Cell.t -> float
(** ½·C·V² per toggle (fJ). *)

val leakage_nw : ?params:params -> Cell.t -> float
(** Nominal leakage (nW). *)
