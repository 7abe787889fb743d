(** StatisticalGreedy — the paper's gain-based statistical sizing engine
    (Fig. 2), plus the α = 0 mean-delay baseline configuration. The circuit
    is resized in place. *)

type commit_mode =
  | Sequential
      (** commit each winning resize immediately (default; avoids intra-batch
          load conflicts) *)
  | Batch  (** the paper's literal pseudocode: resize scheduled gates at the
          end of the sweep *)

type path_source =
  | Dominant_path  (** the single dominant WNSS path (paper pseudocode) *)
  | All_output_paths  (** union of per-output WNSS paths *)
  | Critical_cone
      (** every node not cutoff-dominated on some path to RV_O (default;
          all of these shape RV_O's variance per conditions (5)/(6)) *)

type config = {
  objective : Objective.t;
  window_depth : int;  (** TFI/TFO levels, paper uses 2 *)
  max_iterations : int;
  move_threshold : float;  (** minimum window-cost gain (ps) per move *)
  commit_mode : commit_mode;
  path_source : path_source;
  evaluation : Window.mode;  (** trial scoring: windowed (paper) or global *)
  engine : Window.engine;
      (** default [Production]: one persistent electrical state, FULLSSTA
          annotation and window per run, kept in sync with dirty-cone
          updates ({!Sta.Electrical.update}, {!Ssta.Fullssta.update},
          {!Window.commit_incremental}); window trials score every
          candidate size in one shared wavefront drain. [Reference] is the
          from-scratch oracle: a fresh FULLSSTA run and window every
          iteration, each trial recomputing its whole window. Every
          incremental stop is exact (bit-equal values), so the sizing
          trajectory and final cells are identical on both engines —
          Production is only faster. *)
  paranoid : bool;
      (** default false: cross-check every incremental FULLSSTA update
          against a from-scratch run, raising {!Ssta.Fullssta.Divergence}
          (STAT005) on any mismatch. Costs more than the Reference engine;
          meant for debugging and CI property runs. *)
}

val default_config : config
(** α = 3, depth-2 windows, 0.02 ps move threshold, sequential commits, the
    critical-cone path source, Global scoring, 120 iterations max, the
    [Production] engine. *)

val mean_delay_config : config
(** The "Original" baseline: identical machinery at α = 0 (pure mean
    delay) with a 0.5 ps move threshold, so the mean optimizer stops at
    diminishing returns. *)

type iteration = {
  index : int;
  cost : float;
  mean : float;
  sigma : float;
  area : float;
  resizes : int;
  path_length : int;
}

type stop_reason = Converged | No_candidate | Iteration_limit

type result = {
  config : config;
  initial_moments : Numerics.Clark.moments;
  final_moments : Numerics.Clark.moments;
  final_run : Ssta.Fullssta.t;
      (** The FULLSSTA run behind [final_moments]: a fresh run under
          {!Ssta.Fullssta.default_config} over the cells the sizer leaves
          in place. The caller owns it; {!Area_recovery.recover} takes it
          as [?full] and mutates its electrical state, so read it before
          handing it on. *)
  initial_area : float;
  final_area : float;
  iterations : iteration list;
  stop_reason : stop_reason;
  total_resizes : int;
  cutoff_fraction : float;
  windows_evaluated : int;
      (** gate windows actually scored across all iterations *)
  runtime_s : float;
}

val optimize :
  ?ignore_lint:bool ->
  ?config:config ->
  lib:Cells.Library.t ->
  Netlist.Circuit.t ->
  result
(** Prices every state under {!Ssta.Fullssta.default_config}: its pdf
    samples and variation model drive the FULLSSTA runs, the WNSS traces
    and the window trials alike. The run stops after 4 consecutive
    iterations without a new best cost. Runs a lint preflight first
    ({!Lint.Preflight.gate} over circuit, library, and variation model):
    Error-level findings raise {!Lint.Preflight.Rejected} unless
    [ignore_lint] is set; warnings are logged. After the run, LUT
    extrapolation observed during sizing is logged once per cell
    (LIB007). *)

val mean_change_pct :
  original:Numerics.Clark.moments -> optimized:result -> float

val sigma_change_pct :
  original:Numerics.Clark.moments -> optimized:result -> float

val area_change_pct : original_area:float -> optimized:result -> float

val sigma_over_mean : Numerics.Clark.moments -> float

val pp_stop_reason : stop_reason Fmt.t
val pp_result : result Fmt.t
