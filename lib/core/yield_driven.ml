(* Yield-driven sizing: escalate the variance weight until the circuit meets
   a clock period with the requested parametric yield — the "increase the
   overall yield of a design" application the paper's §2.2 leads with
   (optimization 1 in Fig. 1 yields more functional units at period T).

   Escalation rather than bisection: each optimization run is expensive and
   yield is monotone in α in practice, so the ladder stops at the first α
   that meets the target (or reports the best it could do). *)

type config = {
  sizer : Sizer.config; (* objective is overridden per ladder step *)
  alphas : float list; (* escalation ladder, ascending *)
  recover_area : bool;
}

let default_config =
  {
    sizer = Sizer.default_config;
    alphas = [ 1.0; 3.0; 6.0; 9.0; 15.0 ];
    recover_area = true;
  }

type step = { alpha : float; yield_ : float; sigma : float; area : float }

type result = {
  target : float;
  period : float;
  achieved : float; (* final yield *)
  met : bool;
  steps : step list; (* chronological, last one is the final state *)
}

let measure full circuit ~period =
  let m = Ssta.Fullssta.output_moments full in
  ( Ssta.Fullssta.yield_at full ~period,
    Numerics.Clark.sigma m,
    Netlist.Circuit.total_area circuit )

let optimize ?(config = default_config) ~lib circuit ~period ~target =
  if not (target > 0.0 && target < 1.0) then
    invalid_arg "Yield_driven.optimize: target must be in (0, 1)";
  let yield0, sigma0, area0 =
    measure (Ssta.Fullssta.run circuit) circuit ~period
  in
  let steps = ref [ { alpha = 0.0; yield_ = yield0; sigma = sigma0; area = area0 } ] in
  let rec ladder = function
    | [] -> ()
    | alpha :: rest ->
        let current = (List.hd !steps).yield_ in
        if current < target then begin
          let objective = Objective.create ~alpha in
          let sizer = { config.sizer with Sizer.objective } in
          let sized = Sizer.optimize ~config:sizer ~lib circuit in
          (* the step's closing FULLSSTA run (recovery's, else the
             sizer's) already prices its cells *)
          let full =
            if config.recover_area then
              (Area_recovery.recover ~objective ~full:sized.Sizer.final_run
                 ~lib circuit)
                .Area_recovery.final_run
            else sized.Sizer.final_run
          in
          let yield_, sigma, area = measure full circuit ~period in
          steps := { alpha; yield_; sigma; area } :: !steps;
          ladder rest
        end
  in
  ladder config.alphas;
  let final = List.hd !steps in
  {
    target;
    period;
    achieved = final.yield_;
    met = final.yield_ >= target;
    steps = List.rev !steps;
  }

let pp ppf r =
  Fmt.pf ppf "yield-driven sizing to %.1f%% at T=%.1f ps: %s (%.1f%%)@."
    (100.0 *. r.target) r.period
    (if r.met then "met" else "NOT met")
    (100.0 *. r.achieved);
  List.iter
    (fun s ->
      Fmt.pf ppf "  alpha=%-4g yield=%5.1f%% sigma=%7.2f area=%8.1f@." s.alpha
        (100.0 *. s.yield_) s.sigma s.area)
    r.steps
