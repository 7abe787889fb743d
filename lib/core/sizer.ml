(* StatisticalGreedy — the paper's optimization engine (Fig. 2).

     repeat
       FULLSSTA                       (accurate outer annotation)
       trace the WNSS path
       for every gate on the path:
         extract a 2-level TFI/TFO window
         try every available size, scoring windows with FASSTA
         schedule the best size
       resize all scheduled gates
     until constraints are met or no further improvement

   One metric drives and judges: the exact-erf Clark global cost (the same
   evaluation the inner loop scores trials with), so inner gains are never
   vetoed by cross-engine bias. Only states that improve it are kept (hill
   climbing with memory); FULLSSTA provides annotations, traces, and the
   final reported moments. *)

let log_src = Logs.Src.create "statsize.sizer" ~doc:"StatisticalGreedy sizing"

module Log = (val Logs.src_log log_src)

(* statobs: outer-loop progress counters. Windows evaluated and moves
   committed mirror the result record's fields but accumulate across every
   optimize call in a run, which is what the CI counter gate diffs. *)
let c_iterations = Obs.Counters.make "sizer.iterations"
let c_windows_evaluated = Obs.Counters.make "sizer.windows.evaluated"
let c_moves_committed = Obs.Counters.make "sizer.moves.committed"

(* How path resizes are applied within one outer iteration:
   [Batch] is the paper's literal pseudocode (schedule all, resize at the
   end); [Sequential] commits each winning resize immediately and refreshes
   the window's electrical state, which resolves intra-batch load conflicts
   between neighbouring path gates. Sequential is the default; the ablation
   bench compares both. *)
type commit_mode = Sequential | Batch

(* Which statistical-critical gates each outer iteration visits: the single
   dominant WNSS path (the paper's pseudocode), the union of per-output
   WNSS paths, or every node not cutoff-dominated on some path to RV_O.
   All outputs contribute to RV_O's variance (§2.1), so the wider sweeps
   keep improving after the dominant path saturates; the critical cone is
   the default, the narrower sources are kept for the ablation bench. *)
type path_source = Dominant_path | All_output_paths | Critical_cone

type config = {
  objective : Objective.t;
  window_depth : int;
  max_iterations : int;
  move_threshold : float; (* minimum window-cost gain (ps) to commit a move *)
  commit_mode : commit_mode;
  path_source : path_source;
  evaluation : Window.mode; (* trial scoring: windowed (paper) or global *)
  paranoid : bool; (* cross-check every FULLSSTA update against scratch *)
}

let default_config =
  {
    objective = Objective.create ~alpha:3.0;
    window_depth = 2;
    max_iterations = 120;
    move_threshold = 0.02;
    commit_mode = Sequential;
    path_source = Critical_cone;
    evaluation = Window.Global;
    paranoid = false;
  }

(* The "Original" baseline: pure mean delay with a coarser per-move gain
   threshold — a mean optimizer run to diminishing returns. (Because sigma
   scales as 1/size here, any baseline that squeezes the mean harder also
   pre-crushes sigma and removes the paper's starting point; see DESIGN.md
   §5.7.) *)
let mean_delay_config =
  { default_config with objective = Objective.mean_delay; move_threshold = 0.5 }

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
  final_run : Ssta.Fullssta.t; (* the run behind [final_moments] *)
  initial_area : float;
  final_area : float;
  iterations : iteration list; (* chronological *)
  stop_reason : stop_reason;
  total_resizes : int;
  cutoff_fraction : float; (* FASSTA (5)/(6) hit rate across the whole run *)
  windows_evaluated : int; (* gate windows actually scored *)
  runtime_s : float;
}

(* Consecutive non-improving iterations tolerated before the run stops. *)
let patience = 4

(* One outer iteration: trace the WNSS path, evaluate every gate on it
   through the run's window (refreshed by the caller), apply resizes per
   the commit mode. Returns the applied resizes (gate, previous, new) for
   potential rollback, plus window counts:
   (schedule, path_length, windows_evaluated). *)
let run_iteration config ~model ~lib circuit full window stats_acc =
  (* The statistical traces do not depend on α (they rank by variance
     structure); at α = 0 the cone still covers the deterministic critical
     forest plus the near-critical siblings whose pin loads burden critical
     drivers — visiting them lets the mean optimizer downsize them. *)
  let path =
    match config.path_source with
    | Dominant_path -> Wnss.trace ~model circuit full
    | All_output_paths -> Wnss.trace_all_outputs ~model circuit full
    | Critical_cone -> Wnss.critical_cone ~model circuit full
  in
  let visited =
    List.filter (fun id -> not (Netlist.Circuit.is_input circuit id)) path
  in
  (* The window may be persistent across iterations, so its FASSTA counters
     accumulate: account the delta this iteration adds, not the totals. *)
  let w_stats = Window.fassta_stats window in
  let cutoff0 = w_stats.Ssta.Fassta.cutoff_hits
  and blended0 = w_stats.Ssta.Fassta.blended in
  let applied = ref [] in
  let pending = ref [] in
  List.iter
    (fun gate ->
      let sub =
        Netlist.Cone.extract circuit ~pivot:gate ~depth:config.window_depth
      in
      let verdict = Window.best_size window ~lib sub in
      let current = Netlist.Circuit.cell_exn circuit gate in
      if not (Cells.Cell.equal verdict.Window.best current) then begin
        let gain = verdict.Window.current_cost -. verdict.Window.best_cost in
        if gain > config.move_threshold then begin
          (* the move = pivot resize plus its fanin co-sizing *)
          let moves =
            (gate, current, verdict.Window.best)
            :: List.map
                 (fun (fi, cell) ->
                   (fi, Netlist.Circuit.cell_exn circuit fi, cell))
                 verdict.Window.co_resizes
          in
          match config.commit_mode with
          | Sequential ->
              List.iter
                (fun (g, _, cell) -> Netlist.Circuit.set_cell circuit g cell)
                moves;
              Window.commit_incremental window
                ~resized:(List.map (fun (g, _, _) -> g) moves);
              applied := List.rev_append moves !applied
          | Batch -> pending := List.rev_append moves !pending
        end
      end)
    visited;
  List.iter
    (fun (gate, _, best) -> Netlist.Circuit.set_cell circuit gate best)
    !pending;
  if !pending <> [] then
    Window.commit_incremental window
      ~resized:(List.map (fun (g, _, _) -> g) !pending);
  stats_acc :=
    ( fst !stats_acc + w_stats.Ssta.Fassta.cutoff_hits - cutoff0,
      snd !stats_acc + w_stats.Ssta.Fassta.blended - blended0 );
  (List.rev_append !pending !applied, List.length path, List.length visited)

let optimize ?(ignore_lint = false) ?(config = default_config) ~lib circuit =
  Obs.Span.with_ "sizer.optimize" @@ fun () ->
  (* Preflight: refuse garbage inputs before the first FULLSSTA. Errors
     raise Lint.Preflight.Rejected (unless the caller opted out); warnings
     are logged and the run proceeds. *)
  (* every FULLSSTA run below is under the default config: its model
     drives the traces and the window too *)
  let model = Ssta.Fullssta.default_config.Ssta.Fullssta.model in
  let findings = Lint.Preflight.gate ~ignore_lint ~model ~lib circuit in
  List.iter
    (fun d ->
      if d.Diag.severity <> Diag.Severity.Error then
        Log.warn (fun m -> m "preflight: %a" Diag.pp d))
    findings;
  Lint.Extrapolation.reset lib;
  (* statflow: safe — feeds runtime_s metadata only, never the sized result *)
  let started = Sys.time () in
  let stats_acc = ref (0, 0) in
  let full = Ssta.Fullssta.run circuit in
  let initial_moments = Ssta.Fullssta.output_moments full in
  let initial_area = Netlist.Circuit.total_area circuit in
  let iteration_record index resizes path_length =
    let m = Ssta.Fullssta.output_moments full in
    {
      index;
      cost = Objective.cost_of_moments config.objective m;
      mean = m.Numerics.Clark.mean;
      sigma = Numerics.Clark.sigma m;
      area = Netlist.Circuit.total_area circuit;
      resizes;
      path_length;
    }
  in
  (* Hill climbing with memory: iterations are always applied (never rolled
     back mid-run, so the search can traverse cost plateaus), the best cell
     assignment seen is remembered, and the loop stops after [patience]
     consecutive iterations without a new best — then the best state is
     restored. *)
  let snapshot () =
    List.map
      (fun id -> (id, Netlist.Circuit.cell_exn circuit id))
      (Netlist.Circuit.gates circuit)
  in
  let restore cells =
    List.iter (fun (id, cell) -> Netlist.Circuit.set_cell circuit id cell) cells
  in
  (* One window for the whole run: its electrical state (shared with
     [full]) and cached base arrivals are kept in sync by the incremental
     commits and refreshed at each iteration start. Its committed base cost
     is the acceptance metric: exact-Clark moments, identical in kind to
     Window.Global's trial scoring and bit-equal to a scratch pass. *)
  let window =
    Window.create ~mode:config.evaluation ~circuit ~model
      ~objective:config.objective ~full ()
  in
  let best_cost = ref (Window.base_cost window) in
  let best_cells = ref (snapshot ()) in
  let windows = ref 0 in
  let rec loop index misses history resizes =
    if index >= config.max_iterations then (Iteration_limit, history, resizes)
    else begin
      if index > 0 then Window.refresh window;
      let schedule, path_length, evaluated =
        Obs.Span.with_ "sizer.iteration" @@ fun () ->
        run_iteration config ~model ~lib circuit full window stats_acc
      in
      Obs.Counters.bump c_iterations;
      Obs.Counters.add c_windows_evaluated evaluated;
      Obs.Counters.add c_moves_committed (List.length schedule);
      windows := !windows + evaluated;
      match schedule with
      | [] -> (No_candidate, history, resizes)
      | _ ->
          (* the window's commits already refreshed the shared electrical
             state; this resyncs the FULLSSTA annotation over it *)
          ignore (Ssta.Fullssta.update ~paranoid:config.paranoid full);
          let cost' = Window.base_cost window in
          let improved = cost' < !best_cost in
          Log.debug (fun m ->
              m "iter %d: cost %.3f (best %.3f, %d resizes)" index cost'
                !best_cost (List.length schedule));
          let record =
            iteration_record index (List.length schedule) path_length
          in
          if improved then begin
            best_cost := cost';
            best_cells := snapshot ();
            loop (index + 1) 0 (record :: history)
              (resizes + List.length schedule)
          end
          else if misses + 1 >= patience then
            (Converged, record :: history, resizes + List.length schedule)
          else
            loop (index + 1) (misses + 1) (record :: history)
              (resizes + List.length schedule)
    end
  in
  let stop_reason, history, total_resizes = loop 0 0 [] 0 in
  restore !best_cells;
  let final_full = Ssta.Fullssta.run circuit in
  (* Clamp-and-warn (LIB007): report, once per cell, every table that was
     queried outside its characterized grid during this run. *)
  List.iter
    (fun d -> Log.warn (fun m -> m "%a" Diag.pp d))
    (Lint.Extrapolation.collect lib);
  let cutoff_hits, blended = !stats_acc in
  {
    config;
    initial_moments;
    final_moments = Ssta.Fullssta.output_moments final_full;
    final_run = final_full;
    initial_area;
    final_area = Netlist.Circuit.total_area circuit;
    iterations = List.rev history;
    stop_reason;
    total_resizes;
    cutoff_fraction =
      (let total = cutoff_hits + blended in
       if total = 0 then Float.nan else float_of_int cutoff_hits /. float_of_int total);
    windows_evaluated = !windows;
    (* statflow: safe — runtime_s is reporting metadata, not a result field *)
    runtime_s = Sys.time () -. started;
  }

(* Summary percentages relative to a reference result (Table 1's columns are
   relative to the mean-optimized "Original"). *)
let mean_change_pct ~original ~optimized =
  100.0
  *. (optimized.final_moments.Numerics.Clark.mean
      -. original.Numerics.Clark.mean)
  /. original.Numerics.Clark.mean

let sigma_change_pct ~original ~optimized =
  let s0 = Numerics.Clark.sigma original in
  100.0 *. (Numerics.Clark.sigma optimized.final_moments -. s0) /. s0

let area_change_pct ~original_area ~optimized =
  100.0 *. (optimized.final_area -. original_area) /. original_area

let sigma_over_mean m =
  Numerics.Clark.sigma m /. m.Numerics.Clark.mean

let pp_stop_reason ppf = function
  | Converged -> Fmt.string ppf "converged (no further improvement)"
  | No_candidate -> Fmt.string ppf "no resize candidate on WNSS path"
  | Iteration_limit -> Fmt.string ppf "iteration limit"

let pp_result ppf r =
  let s0 = Numerics.Clark.sigma r.initial_moments
  and s1 = Numerics.Clark.sigma r.final_moments in
  let pp_cutoff ppf f =
    (* the quadratic-cutoff statistic only accrues in Windowed mode *)
    if Float.is_nan f then Fmt.string ppf "n/a"
    else Fmt.pf ppf "%.0f%%" (100.0 *. f)
  in
  Fmt.pf ppf
    "@[<v>alpha=%g: mu %.1f -> %.1f, sigma %.2f -> %.2f, area %.1f -> %.1f@ %d \
     iterations, %d resizes, cutoff %a, %.2fs (%a)@]"
    (Objective.alpha r.config.objective)
    r.initial_moments.Numerics.Clark.mean r.final_moments.Numerics.Clark.mean s0 s1
    r.initial_area r.final_area
    (List.length r.iterations)
    r.total_resizes pp_cutoff r.cutoff_fraction r.runtime_s
    pp_stop_reason r.stop_reason
