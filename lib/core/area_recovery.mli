(** Area recovery (constrained mode, paper §2.1): downsize gates greedily
    while the statistical objective stays within a tolerance budget. *)

type result = {
  downsized : int;
  area_before : float;
  area_after : float;
  cost_before : float;
  cost_after : float;
  final_run : Ssta.Fullssta.t;
      (** The FULLSSTA run behind [cost_after]: a fresh run over the
          recovered cells under the settings of the run that priced
          [cost_before]. The caller owns it. *)
}

val recover :
  objective:Objective.t ->
  ?tolerance:float ->
  ?full:Ssta.Fullssta.t ->
  lib:Cells.Library.t ->
  Netlist.Circuit.t ->
  result
(** Mutates the circuit in place, keeping [objective] within [tolerance]
    (default 0.003, i.e. 0.3%) of its cost before recovery. [full], when
    given, must be a run over the circuit's current cells (such as
    {!Sizer.result.final_run}); recovery prices [cost_before] with it and
    reads its pdf samples and variation model from it
    ({!Ssta.Fullssta.config}), so its judging window and its closing run
    price under the same settings as the stage before it. Recovery owns
    [full] from then on: its judging window mutates the run's electrical
    state, so the caller must not read it afterwards. Without [full],
    recovery makes that run itself, under
    {!Ssta.Fullssta.default_config}. *)

val pp_result : result Fmt.t
