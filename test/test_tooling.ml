(* Tests for the tooling/side-story extensions: power model and analysis,
   yield-driven sizing, the Kogge-Stone generator, Verilog and SDF export. *)

open Test_util

(* ---- power ---------------------------------------------------------------- *)

let power_cell_model () =
  let small = Cells.Library.cell_exn lib ~fn:Cells.Fn.Inv ~drive_index:0 in
  let big = Cells.Library.cell_exn lib ~fn:Cells.Fn.Inv ~drive_index:7 in
  check_true "bigger cell, more dynamic energy"
    (Cells.Power.dynamic_energy_fj big > Cells.Power.dynamic_energy_fj small);
  check_true "bigger cell, more leakage"
    (Cells.Power.leakage_nw big > Cells.Power.leakage_nw small)

let power_analysis_runs () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:8 () in
  let r =
    Ssta.Power_analysis.run
      ~config:{ Ssta.Power_analysis.default_config with trials = 500 }
      c
  in
  check_true "dynamic positive" (r.Ssta.Power_analysis.dynamic_uw > 0.0);
  let s = Ssta.Power_analysis.leakage_stats r in
  check_int "all trials" 500 (Numerics.Stats.count s);
  check_true "leakage positive" (Numerics.Stats.mean s > 0.0);
  check_true "leakage varies across dies" (Numerics.Stats.std s > 0.0);
  check_true "total includes both"
    (Ssta.Power_analysis.total_mean_uw r > r.Ssta.Power_analysis.dynamic_uw)

let power_upsizing_costs_power () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:6 () in
  let cfg = { Ssta.Power_analysis.default_config with trials = 300 } in
  let before = Ssta.Power_analysis.run ~config:cfg c in
  List.iter
    (fun id ->
      let cell = Netlist.Circuit.cell_exn c id in
      Netlist.Circuit.set_cell c id
        (Cells.Library.max_cell lib ~fn:(Cells.Cell.fn cell)))
    (Netlist.Circuit.gates c);
  let after = Ssta.Power_analysis.run ~config:cfg c in
  check_true "upsizing raises leakage"
    (Numerics.Stats.mean (Ssta.Power_analysis.leakage_stats after)
    > Numerics.Stats.mean (Ssta.Power_analysis.leakage_stats before));
  check_true "upsizing raises dynamic power"
    (after.Ssta.Power_analysis.dynamic_uw > before.Ssta.Power_analysis.dynamic_uw)

(* ---- yield-driven sizing ----------------------------------------------------- *)

let yield_driven_meets_target () =
  let c = Benchgen.Alu.generate ~lib ~bits:6 () in
  let _ = Core.Initial_sizing.apply ~lib c in
  let _ = Core.Sizer.optimize ~config:Core.Sizer.mean_delay_config ~lib c in
  let full = Ssta.Fullssta.run c in
  let m = Ssta.Fullssta.output_moments full in
  (* a period the baseline misses often: mean + 0.3 sigma *)
  let period = m.Numerics.Clark.mean +. (0.3 *. Numerics.Clark.sigma m) in
  let before = Ssta.Fullssta.yield_at full ~period in
  let r = Core.Yield_driven.optimize ~lib c ~period ~target:0.95 in
  check_true "started below target" (before < 0.95);
  check_true "target met" r.Core.Yield_driven.met;
  check_true "achieved recorded" (r.Core.Yield_driven.achieved >= 0.95);
  check_true "ladder stopped early or at end"
    (List.length r.Core.Yield_driven.steps <= 6);
  (* the final step's yield equals the result's achieved yield *)
  let last =
    List.nth r.Core.Yield_driven.steps (List.length r.Core.Yield_driven.steps - 1)
  in
  close ~tol:1e-9 "final step consistent" r.Core.Yield_driven.achieved
    last.Core.Yield_driven.yield_

let yield_driven_validates_target () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:4 () in
  try
    ignore (Core.Yield_driven.optimize ~lib c ~period:100.0 ~target:1.5);
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let yield_driven_noop_when_already_met () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:4 () in
  let area0 = Netlist.Circuit.total_area c in
  let r = Core.Yield_driven.optimize ~lib c ~period:1e7 ~target:0.9 in
  check_true "met trivially" r.Core.Yield_driven.met;
  check_int "no ladder steps taken" 1 (List.length r.Core.Yield_driven.steps);
  close ~tol:1e-9 "area untouched" area0 (Netlist.Circuit.total_area c)

(* ---- Kogge-Stone --------------------------------------------------------------- *)

let kogge_stone_matches_spec () =
  List.iter
    (fun bits ->
      let c = Benchgen.Kogge_stone.generate ~lib ~bits () in
      let rng = Numerics.Rng.create ~seed:bits in
      for _ = 1 to 150 do
        let a = Numerics.Rng.int rng ~bound:(1 lsl bits) in
        let b = Numerics.Rng.int rng ~bound:(1 lsl bits) in
        let cin = Numerics.Rng.int rng ~bound:2 in
        let ins =
          bits_of_int ~prefix:"a" ~width:bits a
          @ bits_of_int ~prefix:"b" ~width:bits b
          @ [ ("cin", cin = 1) ]
        in
        let outs = Netlist.Simulate.run c ~inputs:ins in
        let sum = Netlist.Simulate.read_unsigned outs ~prefix:"sum" in
        let cout = if List.assoc "cout" outs then 1 else 0 in
        if sum + (cout lsl bits) <> a + b + cin then
          Alcotest.failf "ks%d %d+%d+%d gave %d" bits a b cin
            (sum + (cout lsl bits))
      done)
    [ 1; 4; 8; 13 ]

let kogge_stone_is_shallower_than_ripple () =
  let ks = Benchgen.Kogge_stone.generate ~lib ~bits:16 () in
  let rca = Benchgen.Adder.ripple_carry ~lib ~bits:16 () in
  check_true "parallel prefix is shallower"
    (Netlist.Levelize.depth ks < Netlist.Levelize.depth rca);
  check_true "and larger"
    (Netlist.Circuit.gate_count ks > Netlist.Circuit.gate_count rca)

(* ---- Verilog -------------------------------------------------------------------- *)

let verilog_structure () =
  let c = tiny_circuit () in
  let text = Netlist.Verilog.to_verilog ~module_name:"tiny" c in
  let has needle =
    let len = String.length needle in
    let rec scan i =
      i + len <= String.length text
      && (String.sub text i len = needle || scan (i + 1))
    in
    scan 0
  in
  check_true "module header" (has "module tiny (");
  check_true "endmodule" (has "endmodule");
  check_true "input decls" (has "input a;");
  check_true "output decl" (has "output n3;");
  check_true "instance with ports" (has ".Y(n1)");
  check_true "cell reference" (has "AND2_X1");
  (* every gate instantiated once *)
  check_true "or instance" (has ".Y(n3)")

let verilog_escapes_identifiers () =
  let bld = Netlist.Build.create ~lib ~name:"esc" () in
  let a = Netlist.Build.input bld ~name:"1in" in
  let x = Netlist.Build.not_ ~name:"weird.name" bld a in
  ignore (Netlist.Build.output bld x);
  let c = Netlist.Build.finish bld in
  let text = Netlist.Verilog.to_verilog c in
  check_true "escaped with backslash"
    (String.length text > 0
    && (let rec scan i =
          i < String.length text - 1
          && ((text.[i] = '\\' && text.[i + 1] = '1') || scan (i + 1))
        in
        scan 0))

(* ---- SDF ------------------------------------------------------------------------ *)

let sdf_structure () =
  let c = tiny_circuit () in
  let e = Sta.Electrical.compute c in
  let text = Sta.Sdf.to_sdf ~design:"tiny" c e in
  let count needle =
    let len = String.length needle in
    let n = ref 0 in
    for i = 0 to String.length text - len do
      if String.sub text i len = needle then incr n
    done;
    !n
  in
  check_int "one CELL per gate" 3 (count "(CELL ");
  (* one IOPATH per fanin arc: 2 + 1 + 2 *)
  check_int "IOPATH per arc" 5 (count "(IOPATH ");
  check_true "header" (count "(DELAYFILE" = 1);
  check_true "min <= typ <= max encoded"
    (count "(DELAY (ABSOLUTE" = 3)

let sdf_corners_ordered () =
  let c = tiny_circuit () in
  let e = Sta.Electrical.compute c in
  let n1 = Test_util.find_exn c ~name:"n1" in
  let d = (Sta.Electrical.arc_delays e n1).(0) in
  let strength = Cells.Cell.strength (Netlist.Circuit.cell_exn c n1) in
  let sigma = Variation.Model.sigma Variation.Model.default ~delay:d ~strength in
  let text = Sta.Sdf.to_sdf ~sigma_corner:2.0 c e in
  (* the typ value for n1's first arc appears with its +-2 sigma corners *)
  let expect =
    Printf.sprintf "(%.1f:%.1f:%.1f)" (Float.max 0.0 (d -. (2.0 *. sigma))) d
      (d +. (2.0 *. sigma))
  in
  let len = String.length expect in
  let rec scan i =
    i + len <= String.length text && (String.sub text i len = expect || scan (i + 1))
  in
  check_true "corner triple present" (scan 0)

let () =
  Alcotest.run "tooling"
    [
      ( "power",
        [
          Alcotest.test_case "cell model" `Quick power_cell_model;
          Alcotest.test_case "analysis runs" `Quick power_analysis_runs;
          Alcotest.test_case "upsizing costs power" `Quick power_upsizing_costs_power;
        ] );
      ( "yield_driven",
        [
          Alcotest.test_case "meets target" `Quick yield_driven_meets_target;
          Alcotest.test_case "validates target" `Quick yield_driven_validates_target;
          Alcotest.test_case "noop when met" `Quick yield_driven_noop_when_already_met;
        ] );
      ( "kogge_stone",
        [
          Alcotest.test_case "matches spec" `Quick kogge_stone_matches_spec;
          Alcotest.test_case "shallower than ripple" `Quick
            kogge_stone_is_shallower_than_ripple;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "structure" `Quick verilog_structure;
          Alcotest.test_case "escapes identifiers" `Quick verilog_escapes_identifiers;
        ] );
      ( "sdf",
        [
          Alcotest.test_case "structure" `Quick sdf_structure;
          Alcotest.test_case "corners ordered" `Quick sdf_corners_ordered;
        ] );
    ]
