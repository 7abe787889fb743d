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
  final_run : Ssta.Fullssta.t;
      (** The FULLSSTA run behind [cost_after]: a fresh run under [config]'s
          samples, model and electrical settings over the recovered cells.
          The caller owns it. *)
}

val recover :
  ?config:config ->
  ?full:Ssta.Fullssta.t ->
  lib:Cells.Library.t ->
  Netlist.Circuit.t ->
  result
(** Mutates the circuit in place. [full], when given, must be a run that
    prices the circuit's current cells under [config]'s samples, model and
    electrical settings (such as {!Sizer.result.final_run} after a sizing
    under the config {!config_of_sizer} derives from); recovery then prices
    [cost_before] with it instead of running FULLSSTA again. Recovery owns
    [full] from then on: its judging window mutates the run's electrical
    state, so the caller must not read it afterwards. Without [full],
    recovery makes that run itself. *)

val pp_result : result Fmt.t
