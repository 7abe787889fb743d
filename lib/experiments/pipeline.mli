(** Shared experiment pipeline: generate → initial sizing → mean-delay
    baseline ("Original") → StatisticalGreedy at α → area recovery →
    measure. *)

type baseline = {
  circuit : Netlist.Circuit.t;
  moments : Numerics.Clark.moments;
  area : float;
  gates : int;
  prep_runtime_s : float;
}

val sigma_over_mean : Numerics.Clark.moments -> float

val prepare :
  ?ignore_lint:bool ->
  ?mean_config:Core.Sizer.config ->
  lib:Cells.Library.t ->
  (unit -> Netlist.Circuit.t) ->
  baseline
(** Generate, apply the initial sizing, run the mean-delay sizer
    ([mean_config], default {!Core.Sizer.mean_delay_config}). The
    baseline's [moments] are that sizer's [final_moments]: the RV_O of a
    FULLSSTA run under {!Ssta.Fullssta.default_config} over the cells it
    leaves in place. The sizer's lint preflight
    applies: Error-level findings raise {!Lint.Preflight.Rejected} unless
    [ignore_lint] is set. *)

type stat_run = {
  alpha : float;
  circuit : Netlist.Circuit.t;
  final_moments : Numerics.Clark.moments;
  final_area : float;
  mean_change_pct : float;
  sigma_change_pct : float;
  final_sigma_over_mean : float;
  area_change_pct : float;
  iterations : int;
  resizes : int;
  runtime_s : float;
}

val run_alpha :
  ?ignore_lint:bool ->
  ?recover:bool ->
  ?config:Core.Sizer.config ->
  lib:Cells.Library.t ->
  baseline ->
  alpha:float ->
  stat_run
(** Copies the baseline circuit, so runs at different α are independent.
    Sizing, area recovery and the FULLSSTA run that prices the result all
    run under {!Ssta.Fullssta.default_config}. No sizing is priced twice:
    the sizer's final run goes to recovery, which owns it from then on,
    and the result is priced by recovery's closing run (the sizer's final
    run when [recover] is false). *)
