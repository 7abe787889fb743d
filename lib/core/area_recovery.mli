(** Area recovery (constrained mode, paper §2.1): downsize gates greedily
    while the statistical objective stays within a tolerance budget. *)

type config = {
  objective : Objective.t;
  model : Variation.Model.t;
  tolerance : float;
  samples : int;
  electrical : Sta.Electrical.config;
}

val default_config : config
(** α = 3, 0.3%% objective tolerance. *)

val config_of_sizer : Sizer.config -> config
(** The recovery config that follows a sizing run: the sizer's objective,
    variation model, FULLSSTA samples and electrical config, with the
    default tolerance — so the recovery budget is measured in the currency
    the sizing gains were bought in. *)

type result = {
  downsized : int;
  area_before : float;
  area_after : float;
  cost_before : float;
  cost_after : float;
}

val recover :
  ?config:config -> lib:Cells.Library.t -> Netlist.Circuit.t -> result
(** Mutates the circuit in place. *)

val pp_result : result Fmt.t
