(* Additional fine-grained coverage: small behaviours not exercised by the
   main suites. *)

open Test_util

(* ---- numerics ---------------------------------------------------------- *)

let eigen_one_by_one () =
  let e = Numerics.Eigen.decompose [| [| 4.2 |] |] in
  close ~tol:1e-12 "eigenvalue" 4.2 e.Numerics.Eigen.values.(0);
  close ~tol:1e-12 "eigenvector" 1.0 (Float.abs e.Numerics.Eigen.vectors.(0).(0))

let discrete_max_list () =
  let mk mu = Numerics.Discrete_pdf.of_normal ~samples:10 ~mean:mu ~sigma:1.0 () in
  let m = Numerics.Discrete_pdf.max_list [ mk 10.0; mk 11.0; mk 60.0 ] in
  close ~tol:0.01 "dominated by 60" 60.0 (Numerics.Discrete_pdf.mean m);
  Alcotest.check_raises "empty max_list"
    (Invalid_argument "Discrete_pdf.max_list: empty") (fun () ->
      ignore (Numerics.Discrete_pdf.max_list []))

let lut_map () =
  let lut =
    Numerics.Lut.create ~rows:[| 0.0; 1.0 |] ~cols:[| 0.0; 1.0 |]
      ~values:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]
  in
  let doubled = Numerics.Lut.map lut ~f:(fun v -> 2.0 *. v) in
  close "mapped corner" 8.0 (Numerics.Lut.query doubled ~row:1.0 ~col:1.0);
  Alcotest.(check (array (float 0.0))) "axes preserved" (Numerics.Lut.rows lut)
    (Numerics.Lut.rows doubled)

let stats_empty_behaviour () =
  let s = Numerics.Stats.create () in
  check_true "empty mean is nan" (Float.is_nan (Numerics.Stats.mean s));
  close_abs ~tol:0.0 "empty variance is 0" 0.0 (Numerics.Stats.variance s);
  Numerics.Stats.add s 5.0;
  close "single mean" 5.0 (Numerics.Stats.mean s);
  close_abs ~tol:0.0 "single-sample variance is 0" 0.0 (Numerics.Stats.variance s)

let clark_shift () =
  let m = Numerics.Clark.shift (moments ~mu:10.0 ~sigma:2.0) 5.0 in
  close "shifted mean" 15.0 m.Numerics.Clark.mean;
  close "variance unchanged" 4.0 m.Numerics.Clark.var

let rng_float_range () =
  let rng = Numerics.Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Numerics.Rng.float_range rng ~lo:(-3.0) ~hi:7.0 in
    check_true "in range" (v >= -3.0 && v < 7.0)
  done;
  Alcotest.check_raises "inverted range"
    (Invalid_argument "Rng.float_range: hi < lo") (fun () ->
      ignore (Numerics.Rng.float_range rng ~lo:1.0 ~hi:0.0))

(* ---- cells --------------------------------------------------------------- *)

let delay_convex_in_load () =
  (* the quadratic load correction makes delay(load) convex *)
  let cell = Cells.Library.cell_exn lib ~fn:Cells.Fn.Inv ~drive_index:0 in
  let d l = Cells.Cell.delay cell ~slew:10.0 ~load:l in
  let d1 = d 10.0 and d2 = d 40.0 and d3 = d 70.0 in
  check_true "increasing" (d1 < d2 && d2 < d3);
  check_true "convex" (d3 -. d2 >= d2 -. d1 -. 1e-9)

let power_params_custom () =
  let params =
    { Cells.Power.default_params with leakage_per_strength_nw = 10.0 }
  in
  let cell = Cells.Library.cell_exn lib ~fn:Cells.Fn.Inv ~drive_index:0 in
  close ~tol:1e-9 "custom leakage scales"
    (5.0 *. Cells.Power.leakage_nw cell)
    (Cells.Power.leakage_nw ~params cell)

let library_pp_smoke () =
  let s = Fmt.str "%a" Cells.Library.pp lib in
  check_true "pp mentions cell count" (String.length s > 10)

(* ---- sta ------------------------------------------------------------------ *)

let paths_violation_monotone_in_period () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:5 () in
  let t = Sta.Analysis.analyze c in
  let e = Sta.Analysis.electrical t in
  let model = Variation.Model.default in
  match Sta.Paths.k_worst t c ~k:1 with
  | [ p ] ->
      let prob period =
        Sta.Paths.violation_probability ~model c e p ~period
      in
      let p1 = prob (p.Sta.Paths.arrival *. 0.8) in
      let p2 = prob p.Sta.Paths.arrival in
      let p3 = prob (p.Sta.Paths.arrival *. 1.2) in
      check_true "monotone decreasing in period" (p1 >= p2 && p2 >= p3);
      check_true "tight period mostly violates" (p1 > 0.7)
  | _ -> Alcotest.fail "expected one path"

let sdf_respects_sigma_corner_zero () =
  let c = tiny_circuit () in
  let e = Sta.Electrical.compute c in
  let text = Sta.Sdf.to_sdf ~sigma_corner:0.0 c e in
  (* with zero corners min = typ = max: triples have equal entries *)
  let n1 = Test_util.find_exn c ~name:"n1" in
  let d = (Sta.Electrical.arc_delays e n1).(0) in
  let expect = Printf.sprintf "(%.1f:%.1f:%.1f)" d d d in
  let len = String.length expect in
  let rec scan i =
    i + len <= String.length text && (String.sub text i len = expect || scan (i + 1))
  in
  check_true "degenerate triple present" (scan 0)

(* ---- ssta ------------------------------------------------------------------ *)

let power_analysis_deterministic () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:4 () in
  let cfg = { Ssta.Power_analysis.default_config with trials = 100; seed = 5 } in
  let r1 = Ssta.Power_analysis.run ~config:cfg c in
  let r2 = Ssta.Power_analysis.run ~config:cfg c in
  Alcotest.(check (array (float 1e-12)))
    "same leakage samples" r1.Ssta.Power_analysis.leakage_uw
    r2.Ssta.Power_analysis.leakage_uw

let stat_slack_fast_min_close_to_exact () =
  let c = Benchgen.Alu.generate ~lib ~bits:4 () in
  let model = Variation.Model.default in
  let full = Ssta.Fullssta.run c in
  let m = Ssta.Fullssta.output_moments full in
  let period = m.Numerics.Clark.mean in
  let exact = Ssta.Stat_slack.of_fullssta ~exact:true ~model ~period full c in
  let fast = Ssta.Stat_slack.of_fullssta ~exact:false ~model ~period full c in
  List.iter
    (fun id ->
      match (Ssta.Stat_slack.slack exact id, Ssta.Stat_slack.slack fast id) with
      | Some a, Some b ->
          close ~tol:0.1 "means track"
            (a.Numerics.Clark.mean +. 1000.0)
            (b.Numerics.Clark.mean +. 1000.0)
      | None, None -> ()
      | _ -> Alcotest.fail "engines disagree on constrained-ness")
    (Netlist.Circuit.inputs c)

(* ---- sdc -------------------------------------------------------------------- *)

let sdc_sample = {|
# constraints for the tiny example
create_clock -period 120.0 -name clk
set_input_delay 8.0 -clock clk [get_ports a]
set_output_delay 15.0 -clock clk [get_ports n3]
// trailing comment line
|}

let sdc_parses () =
  let sdc = Sta.Sdc.of_string sdc_sample in
  close ~tol:1e-9 "period" 120.0 (Sta.Sdc.period_exn sdc);
  close ~tol:1e-9 "input delay" 8.0 (Sta.Sdc.input_delay sdc ~port:"a");
  close_abs ~tol:0.0 "unconstrained input" 0.0 (Sta.Sdc.input_delay sdc ~port:"b");
  close ~tol:1e-9 "output delay" 15.0 (Sta.Sdc.output_delay sdc ~port:"n3");
  close ~tol:1e-9 "worst input delay" 8.0 (Sta.Sdc.worst_input_delay sdc)

let sdc_errors () =
  (try
     ignore (Sta.Sdc.of_string "create_clock -name clk\n");
     Alcotest.fail "expected missing-period error"
   with Sta.Sdc.Parse_error _ -> ());
  (try
     ignore (Sta.Sdc.of_string "set_output_delay [get_ports x]\n");
     Alcotest.fail "expected missing-value error"
   with Sta.Sdc.Parse_error _ -> ());
  try
    ignore (Sta.Sdc.of_string "frobnicate 1 2 3\n");
    Alcotest.fail "expected unknown-command error"
  with Sta.Sdc.Parse_error _ -> ()

let sdc_drives_stat_slack () =
  let c = tiny_circuit () in
  let model = Variation.Model.default in
  let full = Ssta.Fullssta.run c in
  let sdc = Sta.Sdc.of_string sdc_sample in
  let sl = Ssta.Stat_slack.of_sdc ~model ~sdc full c in
  let n3 = Test_util.find_exn c ~name:"n3" in
  (match Ssta.Stat_slack.slack sl n3 with
  | Some s ->
      let m = Ssta.Fullssta.moments full n3 in
      (* slack mean = (period - output margin) - arrival mean *)
      close ~tol:0.01 "margin applied"
        (120.0 -. 15.0 -. m.Numerics.Clark.mean)
        s.Numerics.Clark.mean
  | None -> Alcotest.fail "output constrained");
  (* without the margin the slack is 15 ps larger *)
  let plain = Ssta.Stat_slack.of_fullssta ~model ~period:120.0 full c in
  match (Ssta.Stat_slack.slack sl n3, Ssta.Stat_slack.slack plain n3) with
  | Some a, Some b ->
      close ~tol:0.01 "margin delta" 15.0
        (b.Numerics.Clark.mean -. a.Numerics.Clark.mean)
  | _ -> Alcotest.fail "both constrained"

(* ---- core ------------------------------------------------------------------- *)

let objective_pp_smoke () =
  let s = Fmt.str "%a" Core.Objective.pp (Core.Objective.create ~alpha:3.0) in
  check_true "pp mentions alpha" (String.length s > 5)

let area_recovery_tolerance_respected () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:6 () in
  (* over-size, recover with a generous tolerance, check budget *)
  List.iter
    (fun id ->
      let cell = Netlist.Circuit.cell_exn c id in
      Netlist.Circuit.set_cell c id
        (Cells.Library.max_cell lib ~fn:(Cells.Cell.fn cell)))
    (Netlist.Circuit.gates c);
  let r =
    Core.Area_recovery.recover ~objective:(Core.Objective.create ~alpha:3.0)
      ~tolerance:0.05 ~lib c
  in
  check_true "cost within 6% of pre-recovery"
    (r.Core.Area_recovery.cost_after
    <= 1.06 *. Float.abs r.Core.Area_recovery.cost_before);
  check_true "generous tolerance reclaims a lot"
    (r.Core.Area_recovery.area_after < 0.7 *. r.Core.Area_recovery.area_before)

let window_batch_vs_sequential_same_verdicts () =
  (* best_size itself is commit-mode independent; verdicts must agree *)
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:4 () in
  let full = Ssta.Fullssta.run c in
  let obj = Core.Objective.create ~alpha:3.0 in
  let w1 =
    Core.Window.create ~circuit:c ~model:Variation.Model.default ~objective:obj
      ~full ()
  in
  let w2 =
    Core.Window.create ~circuit:c ~model:Variation.Model.default ~objective:obj
      ~full ()
  in
  List.iteri
    (fun i gate ->
      if i < 8 then begin
        let sub = Netlist.Cone.extract c ~pivot:gate ~depth:2 in
        let v1 = Core.Window.best_size w1 ~lib sub in
        let v2 = Core.Window.best_size w2 ~lib sub in
        check_true "same best cell"
          (Cells.Cell.equal v1.Core.Window.best v2.Core.Window.best);
        close ~tol:1e-9 "same cost" v1.Core.Window.best_cost v2.Core.Window.best_cost
      end)
    (Netlist.Circuit.gates c)

let () =
  Alcotest.run "coverage"
    [
      ( "numerics",
        [
          Alcotest.test_case "eigen 1x1" `Quick eigen_one_by_one;
          Alcotest.test_case "discrete max_list" `Quick discrete_max_list;
          Alcotest.test_case "lut map" `Quick lut_map;
          Alcotest.test_case "stats empty" `Quick stats_empty_behaviour;
          Alcotest.test_case "clark shift" `Quick clark_shift;
          Alcotest.test_case "rng float_range" `Quick rng_float_range;
        ] );
      ( "cells",
        [
          Alcotest.test_case "delay convex in load" `Quick delay_convex_in_load;
          Alcotest.test_case "power params" `Quick power_params_custom;
          Alcotest.test_case "library pp" `Quick library_pp_smoke;
        ] );
      ( "sta",
        [
          Alcotest.test_case "violation monotone" `Quick
            paths_violation_monotone_in_period;
          Alcotest.test_case "sdf zero corner" `Quick sdf_respects_sigma_corner_zero;
        ] );
      ( "ssta",
        [
          Alcotest.test_case "power deterministic" `Quick power_analysis_deterministic;
          Alcotest.test_case "stat slack fast vs exact" `Quick
            stat_slack_fast_min_close_to_exact;
        ] );
      ( "sdc",
        [
          Alcotest.test_case "parses" `Quick sdc_parses;
          Alcotest.test_case "errors" `Quick sdc_errors;
          Alcotest.test_case "drives stat slack" `Quick sdc_drives_stat_slack;
        ] );
      ( "core",
        [
          Alcotest.test_case "objective pp" `Quick objective_pp_smoke;
          Alcotest.test_case "recovery tolerance" `Quick
            area_recovery_tolerance_respected;
          Alcotest.test_case "window verdicts stable" `Quick
            window_batch_vs_sequential_same_verdicts;
        ] );
    ]
