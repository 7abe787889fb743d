(* The experiment pipeline shared by Table 1, Fig. 1 and Fig. 4:

     generate -> initial (load-driven) sizing -> mean-delay baseline
              -> StatisticalGreedy at alpha -> area recovery -> measure

   The mean-optimized circuit is the paper's "Original" column; every
   statistical run copies it, so all alpha points start from the same
   baseline. *)

type baseline = {
  circuit : Netlist.Circuit.t; (* mean-optimized; copy before mutating *)
  moments : Numerics.Clark.moments;
      (* FULLSSTA RV_O of the baseline, from the mean-delay sizer's final run *)
  area : float;
  gates : int;
  prep_runtime_s : float;
}

let sigma_over_mean (m : Numerics.Clark.moments) =
  Numerics.Clark.sigma m /. m.Numerics.Clark.mean

let prepare ?(ignore_lint = false) ?(mean_config = Core.Sizer.mean_delay_config)
    ~lib build =
  Obs.Span.with_ "pipeline.prepare" @@ fun () ->
  (* statflow: safe — prep_runtime_s metadata only *)
  let started = Sys.time () in
  let circuit = build () in
  let _ = Core.Initial_sizing.apply ~lib circuit in
  (* the sizer ends on a FULLSSTA run over the cells it leaves in place;
     its RV_O is the baseline's, so no second run prices the same sizing *)
  let mean = Core.Sizer.optimize ~ignore_lint ~config:mean_config ~lib circuit in
  {
    circuit;
    moments = mean.Core.Sizer.final_moments;
    area = Netlist.Circuit.total_area circuit;
    gates = Netlist.Circuit.gate_count circuit;
    (* statflow: safe — prep_runtime_s metadata only *)
    prep_runtime_s = Sys.time () -. started;
  }

type stat_run = {
  alpha : float;
  circuit : Netlist.Circuit.t; (* the optimized copy *)
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

let run_alpha ?(ignore_lint = false) ?(recover = true)
    ?(config = Core.Sizer.default_config) ~lib (baseline : baseline) ~alpha =
  Obs.Span.with_ "pipeline.run_alpha" @@ fun () ->
  (* statflow: safe — runtime_s metadata only *)
  let started = Sys.time () in
  let circuit = Netlist.Circuit.copy baseline.circuit in
  let objective = Core.Objective.create ~alpha in
  let config = { config with Core.Sizer.objective } in
  let res = Core.Sizer.optimize ~ignore_lint ~config ~lib circuit in
  (* each stage ends on a fresh FULLSSTA run over the cells it leaves in
     place: recovery prices its budget with the sizer's and the result is
     priced by the last one *)
  let full =
    if recover then
      (Core.Area_recovery.recover ~objective ~full:res.Core.Sizer.final_run
         ~lib circuit)
        .Core.Area_recovery.final_run
    else res.Core.Sizer.final_run
  in
  let m = Ssta.Fullssta.output_moments full in
  let area = Netlist.Circuit.total_area circuit in
  let b = baseline.moments in
  {
    alpha;
    circuit;
    final_moments = m;
    final_area = area;
    mean_change_pct =
      100.0 *. (m.Numerics.Clark.mean -. b.Numerics.Clark.mean)
      /. b.Numerics.Clark.mean;
    sigma_change_pct =
      100.0
      *. (Numerics.Clark.sigma m -. Numerics.Clark.sigma b)
      /. Numerics.Clark.sigma b;
    final_sigma_over_mean = sigma_over_mean m;
    area_change_pct = 100.0 *. (area -. baseline.area) /. baseline.area;
    iterations = List.length res.Core.Sizer.iterations;
    resizes = res.Core.Sizer.total_resizes;
    (* statflow: safe — runtime_s metadata only *)
    runtime_s = Sys.time () -. started;
  }
