(* End-to-end integration tests across subsystems. *)

open Test_util

(* Optimization must never change circuit function: simulate before and
   after a full statistical sizing run. *)
let sizing_preserves_function () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:6 () in
  let vectors =
    let rng = Numerics.Rng.create ~seed:60 in
    List.init 60 (fun _ ->
        bits_of_int ~prefix:"a" ~width:6 (Numerics.Rng.int rng ~bound:64)
        @ bits_of_int ~prefix:"b" ~width:6 (Numerics.Rng.int rng ~bound:64)
        @ [ ("cin", Numerics.Rng.bool rng) ])
  in
  let before = List.map (fun ins -> Netlist.Simulate.run c ~inputs:ins) vectors in
  let _ = Core.Initial_sizing.apply ~lib c in
  let _ = Core.Sizer.optimize ~config:Core.Sizer.mean_delay_config ~lib c in
  let config =
    { Core.Sizer.default_config with
      objective = Core.Objective.create ~alpha:9.0; max_iterations = 20 }
  in
  let _ = Core.Sizer.optimize ~config ~lib c in
  let _ =
    Core.Area_recovery.recover ~objective:(Core.Objective.create ~alpha:3.0)
      ~lib c
  in
  let after = List.map (fun ins -> Netlist.Simulate.run c ~inputs:ins) vectors in
  List.iter2
    (fun b a -> Alcotest.(check (list (pair string bool))) "same function" b a)
    before after

(* The optimized circuit must genuinely be more variation-tolerant under
   Monte Carlo, not just per the SSTA engines' own report. *)
let sizing_verified_by_monte_carlo () =
  let build () = Benchgen.Alu.generate ~lib ~bits:6 () in
  let baseline = Experiments.Pipeline.prepare ~lib build in
  let mc_of circuit =
    Ssta.Monte_carlo.run
      ~config:{ Ssta.Monte_carlo.default_config with trials = 1500 }
      circuit
  in
  let before = Ssta.Monte_carlo.circuit_stats (mc_of baseline.Experiments.Pipeline.circuit) in
  let r = Experiments.Pipeline.run_alpha ~lib baseline ~alpha:9.0 in
  let after = Ssta.Monte_carlo.circuit_stats (mc_of r.Experiments.Pipeline.circuit) in
  check_true "MC sigma dropped by at least 25%"
    (Numerics.Stats.std after < 0.75 *. Numerics.Stats.std before);
  check_true "MC mean within 8%"
    (Float.abs (Numerics.Stats.mean after -. Numerics.Stats.mean before)
    < 0.08 *. Numerics.Stats.mean before)

(* A circuit written to .bench, re-imported, and re-optimized behaves the
   same as the original pipeline. *)
let bench_roundtrip_through_optimization () =
  let c = Benchgen.Alu.generate ~lib ~bits:4 () in
  let text = Netlist.Bench_io.to_string c in
  let c2 = Netlist.Bench_io.of_string ~lib ~name:"imported" text in
  let run circuit =
    let _ = Core.Initial_sizing.apply ~lib circuit in
    let _ = Core.Sizer.optimize ~config:Core.Sizer.mean_delay_config ~lib circuit in
    let full = Ssta.Fullssta.run circuit in
    Ssta.Fullssta.output_moments full
  in
  let m1 = run c and m2 = run c2 in
  close ~tol:0.01 "same optimized mean" m1.Numerics.Clark.mean m2.Numerics.Clark.mean

(* The library survives serialization and yields identical timing. *)
let liberty_roundtrip_timing () =
  let text = Cells.Liberty.to_string lib in
  let lib2 = Cells.Liberty.of_string text in
  let c1 = Benchgen.Adder.ripple_carry ~lib ~bits:5 () in
  let c2 = Benchgen.Adder.ripple_carry ~lib:lib2 ~bits:5 () in
  let t1 = Sta.Analysis.analyze c1 and t2 = Sta.Analysis.analyze c2 in
  close ~tol:1e-9 "identical timing through liberty roundtrip"
    (Sta.Analysis.max_arrival t1) (Sta.Analysis.max_arrival t2)

(* Yield improvement story of Fig. 1: at the baseline's mean + 1 sigma, the
   optimized circuit yields more. *)
let yield_improves_at_fixed_period () =
  let build () = Benchgen.Alu.generate ~lib ~bits:6 () in
  let baseline = Experiments.Pipeline.prepare ~lib build in
  let m0 = baseline.Experiments.Pipeline.moments in
  let period = m0.Numerics.Clark.mean +. Numerics.Clark.sigma m0 in
  let full0 = Ssta.Fullssta.run baseline.Experiments.Pipeline.circuit in
  let y0 = Ssta.Fullssta.yield_at full0 ~period in
  let r = Experiments.Pipeline.run_alpha ~lib baseline ~alpha:9.0 in
  let full1 = Ssta.Fullssta.run r.Experiments.Pipeline.circuit in
  let y1 = Ssta.Fullssta.yield_at full1 ~period in
  check_true
    (Printf.sprintf "yield %.3f -> %.3f at fixed period" y0 y1)
    (y1 > y0)

(* The WNSS machinery and the sizer agree: after convergence at high alpha,
   re-running reports no further sigma gain (idempotence up to noise). *)
let sizer_converged_state_is_stable () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:5 () in
  let _ = Core.Initial_sizing.apply ~lib c in
  let config =
    { Core.Sizer.default_config with
      objective = Core.Objective.create ~alpha:9.0; max_iterations = 30 }
  in
  let _ = Core.Sizer.optimize ~config ~lib c in
  let again = Core.Sizer.optimize ~config ~lib c in
  let s0 = Numerics.Clark.sigma again.Core.Sizer.initial_moments in
  let s1 = Numerics.Clark.sigma again.Core.Sizer.final_moments in
  check_true "no significant further reduction" (s1 > 0.9 *. s0)

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "sizing preserves function" `Slow
            sizing_preserves_function;
          Alcotest.test_case "verified by monte carlo" `Slow
            sizing_verified_by_monte_carlo;
          Alcotest.test_case "bench roundtrip + optimize" `Slow
            bench_roundtrip_through_optimization;
          Alcotest.test_case "liberty roundtrip timing" `Quick
            liberty_roundtrip_timing;
          Alcotest.test_case "yield improves" `Slow yield_improves_at_fixed_period;
          Alcotest.test_case "converged state stable" `Slow
            sizer_converged_state_is_stable;
        ] );
    ]
