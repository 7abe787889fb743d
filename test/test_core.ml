(* Tests for the paper's core contribution: objective, WNSS tracing, window
   evaluation, initial sizing, StatisticalGreedy, area recovery. *)

open Test_util

(* ---- Objective ------------------------------------------------------------ *)

let objective_cost () =
  let obj = Core.Objective.create ~alpha:3.0 in
  close "mu + 3 sigma" 130.0
    (Core.Objective.cost_of_moments obj (moments ~mu:100.0 ~sigma:10.0));
  close "alpha" 3.0 (Core.Objective.alpha obj);
  close "mean objective" 100.0
    (Core.Objective.cost_of_moments Core.Objective.mean_delay
       (moments ~mu:100.0 ~sigma:10.0))

let objective_negative_alpha () =
  try
    ignore (Core.Objective.create ~alpha:(-1.0));
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let objective_outputs () =
  let obj = Core.Objective.create ~alpha:2.0 in
  let table =
    [ (0, moments ~mu:100.0 ~sigma:1.0); (1, moments ~mu:90.0 ~sigma:20.0) ]
  in
  let f o = List.assoc o table in
  (* max of costs: 102 vs 130 *)
  close "max per-output cost" 130.0 (Core.Objective.cost_of_outputs obj f [ 0; 1 ]);
  (* the blended RV cost is at least the dominant mean *)
  check_true "rv cost sane" (Core.Objective.cost_of_rv obj f [ 0; 1 ] > 100.0);
  try
    ignore (Core.Objective.cost_of_outputs obj f []);
    Alcotest.fail "empty outputs accepted"
  with Invalid_argument _ -> ()

(* ---- Wnss ------------------------------------------------------------------ *)

let wnss_cutoff_dominance () =
  let cfg = Core.Wnss.config ~coupling:0.5 () in
  (* far-apart means: cutoff picks the higher mean regardless of sigma *)
  check_true "cutoff picks higher mean"
    (Core.Wnss.dominant cfg (moments ~mu:500.0 ~sigma:1.0)
       (moments ~mu:100.0 ~sigma:50.0)
    = Core.Wnss.First)

let wnss_variance_sensitivity_prefers_high_sigma () =
  let cfg = Core.Wnss.config ~coupling:0.5 () in
  (* the paper's Fig. 3 situation: means close, sigmas far apart *)
  let low_mean_high_sigma = moments ~mu:310.0 ~sigma:45.0 in
  let high_mean_low_sigma = moments ~mu:320.0 ~sigma:27.0 in
  check_true "high-sigma branch dominates the variance"
    (Core.Wnss.dominant cfg high_mean_low_sigma low_mean_high_sigma
    = Core.Wnss.Second)

let wnss_sensitivity_positive () =
  let cfg = Core.Wnss.config ~coupling:0.5 () in
  let s =
    Core.Wnss.variance_sensitivity cfg
      ~target:(moments ~mu:100.0 ~sigma:20.0)
      ~other:(moments ~mu:95.0 ~sigma:10.0)
  in
  check_true "sensitivity is finite" (Float.is_finite s)

let wnss_pick_dominant_order_independent () =
  let cfg = Core.Wnss.config ~coupling:0.5 () in
  let items =
    [ ("a", moments ~mu:100.0 ~sigma:5.0); ("b", moments ~mu:101.0 ~sigma:25.0);
      ("c", moments ~mu:60.0 ~sigma:2.0) ]
  in
  let x, _ = Core.Wnss.pick_dominant cfg items in
  let y, _ = Core.Wnss.pick_dominant cfg (List.rev items) in
  Alcotest.(check string) "same winner" x y;
  Alcotest.(check string) "high sigma wins" "b" x

let prepared_alu () =
  let c = Benchgen.Alu.generate ~lib ~bits:4 () in
  let _ = Core.Initial_sizing.apply ~lib c in
  c

let wnss_trace_reaches_input () =
  let c = prepared_alu () in
  let full = Ssta.Fullssta.run c in
  let path = Core.Wnss.trace ~model:Variation.Model.default c full in
  (match path with
  | [] -> Alcotest.fail "empty path"
  | first :: _ ->
      check_true "starts at an output" (Netlist.Circuit.is_output c first));
  let last = List.nth path (List.length path - 1) in
  check_true "ends at an input" (Netlist.Circuit.is_input c last)

let wnss_cone_superset_of_path () =
  let c = prepared_alu () in
  let full = Ssta.Fullssta.run c in
  let model = Variation.Model.default in
  let path = Core.Wnss.trace ~model c full in
  let cone = Core.Wnss.critical_cone ~model c full in
  List.iter
    (fun id -> check_true "path node in cone" (List.mem id cone))
    path;
  check_true "cone within circuit" (List.length cone <= Netlist.Circuit.size c)

let wnss_all_outputs_union () =
  let c = prepared_alu () in
  let full = Ssta.Fullssta.run c in
  let model = Variation.Model.default in
  let forest = Core.Wnss.trace_all_outputs ~model c full in
  let single =
    Core.Wnss.trace_from_output ~model c full (List.hd (Netlist.Circuit.outputs c))
  in
  List.iter (fun id -> check_true "path in forest" (List.mem id forest)) single

(* ---- Initial sizing --------------------------------------------------------- *)

let initial_sizing_respects_fanout_target () =
  (* the SEC corrector's syndrome roots fan out to every flip gate, so the
     rule has real work to do *)
  let c = Benchgen.Ecc.hamming_corrector ~lib ~data_bits:16 () in
  let resizes = Core.Initial_sizing.apply ~lib c in
  check_true "some gates resized" (resizes > 0);
  (* every gate not at max drive meets the electrical-fanout rule *)
  List.iter
    (fun id ->
      let cell = Netlist.Circuit.cell_exn c id in
      let load = Netlist.Circuit.load c id in
      let fanout = load /. Cells.Cell.input_cap cell in
      let at_max = Cells.Library.next_up lib cell = None in
      if not at_max then
        check_true
          (Printf.sprintf "fanout %.1f within target at %s" fanout
             (Netlist.Circuit.node_name c id))
          (fanout <= 4.0 +. 1e-9))
    (Netlist.Circuit.gates c)

let initial_sizing_idempotent () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:8 () in
  let _ = Core.Initial_sizing.apply ~lib c in
  let again = Core.Initial_sizing.apply ~lib c in
  check_int "second pass is a no-op" 0 again

let initial_sizing_pick_cell () =
  let c = Core.Initial_sizing.pick_cell lib ~fn:Cells.Fn.Inv ~load:0.1 ~target:4.0 in
  check_int "tiny load -> min size" 0 (Cells.Cell.drive_index c);
  let c2 = Core.Initial_sizing.pick_cell lib ~fn:Cells.Fn.Inv ~load:1e6 ~target:4.0 in
  check_true "huge load -> max size" (Cells.Library.next_up lib c2 = None)

(* ---- Window ------------------------------------------------------------------ *)

let window_trials_are_side_effect_free () =
  let c = prepared_alu () in
  let full = Ssta.Fullssta.run c in
  let obj = Core.Objective.create ~alpha:3.0 in
  let window =
    Core.Window.create ~circuit:c ~model:Variation.Model.default ~objective:obj
      ~full ()
  in
  let gate = List.nth (Netlist.Circuit.gates c) 5 in
  let sub = Netlist.Cone.extract c ~pivot:gate ~depth:2 in
  let cells_before =
    List.map (fun id -> Netlist.Circuit.cell_exn c id) (Netlist.Circuit.gates c)
  in
  let cost_before = Core.Window.cost window sub in
  let _ = Core.Window.best_size window ~lib sub in
  let cost_after = Core.Window.cost window sub in
  close ~tol:1e-12 "cost unchanged by trials" cost_before cost_after;
  List.iter2
    (fun a b -> check_true "cells restored" (Cells.Cell.equal a b))
    cells_before
    (List.map (fun id -> Netlist.Circuit.cell_exn c id) (Netlist.Circuit.gates c))

let window_best_never_worse () =
  let c = prepared_alu () in
  let full = Ssta.Fullssta.run c in
  let obj = Core.Objective.create ~alpha:3.0 in
  let window =
    Core.Window.create ~circuit:c ~model:Variation.Model.default ~objective:obj
      ~full ()
  in
  List.iteri
    (fun i gate ->
      if i < 15 then begin
        let sub = Netlist.Cone.extract c ~pivot:gate ~depth:2 in
        let v = Core.Window.best_size window ~lib sub in
        check_true "best cost <= current cost"
          (v.Core.Window.best_cost <= v.Core.Window.current_cost +. 1e-9)
      end)
    (Netlist.Circuit.gates c)

let window_windowed_mode_runs () =
  let c = prepared_alu () in
  let full = Ssta.Fullssta.run c in
  let obj = Core.Objective.create ~alpha:3.0 in
  let window =
    Core.Window.create ~mode:Core.Window.Windowed ~circuit:c
      ~model:Variation.Model.default ~objective:obj ~full ()
  in
  let gate = List.nth (Netlist.Circuit.gates c) 3 in
  let sub = Netlist.Cone.extract c ~pivot:gate ~depth:2 in
  let v = Core.Window.best_size window ~lib sub in
  check_true "windowed verdict is finite" (Float.is_finite v.Core.Window.best_cost);
  let stats = Core.Window.fassta_stats window in
  check_true "windowed mode exercises the quadratic engine"
    (stats.Ssta.Fassta.cutoff_hits + stats.Ssta.Fassta.blended > 0)

(* The sizer's window verdict allocates at most 2,000 minor words per
   window on c432 (1,808 measured). The drain's exact Clark max is inlined
   into the window module, so its floats stay unboxed; calling across the
   module boundary into [Numerics.Normal] boxed every one of them (29,924
   words per window). Arrivals, overrides and arc moments are flat float
   arrays and the trial's electrical log is preallocated, so storing a
   moved value allocates nothing either (11,815 words per window when
   each stored value was a [Clark.moments] record and each trial built an
   undo list). Measured on a second sweep, so the first has grown every
   per-candidate buffer. *)
let window_allocation_pin () =
  let c = Benchgen.Iscas_like.build_exn ~lib "c432" in
  ignore (Core.Initial_sizing.apply ~lib c);
  let window =
    Core.Window.create ~mode:Core.Window.Global ~engine:Core.Window.Production
      ~circuit:c ~model:Variation.Model.default
      ~objective:(Core.Objective.create ~alpha:3.0)
      ~full:(Ssta.Fullssta.run c) ()
  in
  let subs =
    List.map
      (fun g -> Netlist.Cone.extract c ~pivot:g ~depth:2)
      (Netlist.Circuit.gates c)
  in
  let sweep () =
    List.iter
      (fun sub ->
        ignore (Sys.opaque_identity (Core.Window.best_size window ~lib sub)))
      subs
  in
  sweep ();
  let w0 = Gc.minor_words () in
  sweep ();
  let per_window =
    (Gc.minor_words () -. w0) /. float_of_int (List.length subs)
  in
  check_true
    (Printf.sprintf "minor words per window %.0f <= 2000" per_window)
    (per_window <= 2_000.0)

(* The drain's clamp [Window.max0] against [Float.max v 0.0], on the bits:
   signed zeros, infinities, subnormals and NaNs of either sign and
   several payloads, then random doubles from random bit patterns. *)
let window_max0_is_float_max () =
  let bits = Int64.bits_of_float in
  let same v =
    Int64.equal (bits (Core.Window.max0 v)) (bits (Float.max v 0.0))
  in
  let specials =
    [ 0.0; -0.0; 1.0; -1.0; infinity; neg_infinity; Float.nan; -.Float.nan;
      max_float; -.max_float; min_float; -.min_float; 5e-324; -5e-324 ]
    @ List.map Int64.float_of_bits
        [ 0x7ff0000000000001L; 0xfff0000000000001L; 0x7ff8000000000000L;
          0xfff8000000000000L; 0x7fffffffffffffffL; 0xffffffffffffffffL ]
  in
  List.iter
    (fun v -> check_true (Printf.sprintf "max0 %h" v) (same v))
    specials;
  let rng = Random.State.make [| 0x3a40 |] in
  for _ = 1 to 100_000 do
    let v = Int64.float_of_bits (Random.State.bits64 rng) in
    if not (same v) then Alcotest.failf "max0 %h" v
  done

(* One window-clipped electrical trial plus its [rewind], on every c432
   gate: install the gate's strongest other size, run
   [Electrical.update_trial] over the gate's depth-2 window, rewind. The
   trial log, dirty buffer and trial rows are preallocated, so what remains
   is the LUT queries' boxes (at most 6 words each: both float arguments
   and the result) and [Circuit.load]'s boxed result (2 words) per fanin
   of the resized gate: the pin holds the measured words to that budget,
   with the queries counted by the [lut.*] counters. Measured: 23,038
   words over 200 trials (115 per trial), exactly 6 x 3,728 queries + 2 x
   335 loads. *)
let clipped_trial_allocation_pin () =
  let c = Benchgen.Iscas_like.build_exn ~lib "c432" in
  ignore (Core.Initial_sizing.apply ~lib c);
  let e = Sta.Electrical.compute c in
  let within = Array.make (Netlist.Circuit.size c) false in
  let resized = [| 0 |] in
  let cases =
    List.filter_map
      (fun g ->
        let current = Netlist.Circuit.cell_exn c g in
        let strongest =
          Array.fold_left
            (fun best cell ->
              if
                (not (Cells.Cell.equal cell current))
                && Cells.Cell.strength cell > Cells.Cell.strength best
              then cell
              else best)
            current
            (Cells.Library.sizes_of_fn lib (Cells.Cell.fn current))
        in
        if Cells.Cell.equal strongest current then None
        else Some (g, (Netlist.Cone.extract c ~pivot:g ~depth:2).Netlist.Cone.members, strongest))
      (Netlist.Circuit.gates c)
  in
  let loads = ref 0 in
  let trial (g, members, cell) =
    let current = Netlist.Circuit.cell_exn c g in
    Netlist.Circuit.set_cell c g cell;
    Array.iter (fun id -> within.(id) <- true) members;
    Array.iter
      (fun fi -> if within.(fi) then incr loads)
      (Netlist.Circuit.fanins c g);
    resized.(0) <- g;
    let w0 = Gc.minor_words () in
    Sta.Electrical.update_trial e c ~within ~resized ~nresized:1;
    Sta.Electrical.rewind e;
    let words = Gc.minor_words () -. w0 in
    Array.iter (fun id -> within.(id) <- false) members;
    Netlist.Circuit.set_cell c g current;
    words
  in
  let sweep () = List.fold_left (fun acc case -> acc +. trial case) 0.0 cases in
  ignore (sweep ());
  let probe =
    let w0 = Gc.minor_words () in
    Gc.minor_words () -. w0
  in
  let queries () =
    let dump = Obs.Counters.dump () in
    List.assoc "lut.delay_queries" dump + List.assoc "lut.slew_queries" dump
  in
  Obs.Sink.reset ();
  Obs.Sink.enable ();
  loads := 0;
  let q0 = queries () in
  let words =
    Fun.protect ~finally:Obs.Sink.disable (fun () -> sweep ())
    -. (probe *. float_of_int (List.length cases))
  in
  let q = queries () - q0 in
  Obs.Sink.reset ();
  check_true
    (Printf.sprintf "%.0f minor words <= 6 x %d LUT queries + 2 x %d loads" words q !loads)
    (words <= float_of_int ((6 * q) + (2 * !loads)))

(* ---- Sizer -------------------------------------------------------------------- *)

let small_stat_config alpha =
  { Core.Sizer.default_config with
    objective = Core.Objective.create ~alpha;
    max_iterations = 30 }

let sizer_reduces_sigma () =
  let c = prepared_alu () in
  let _ = Core.Sizer.optimize ~config:Core.Sizer.mean_delay_config ~lib c in
  let res = Core.Sizer.optimize ~config:(small_stat_config 9.0) ~lib c in
  let s0 = Numerics.Clark.sigma res.Core.Sizer.initial_moments in
  let s1 = Numerics.Clark.sigma res.Core.Sizer.final_moments in
  check_true "sigma reduced by at least 20%" (s1 < 0.8 *. s0);
  check_true "area grew" (res.Core.Sizer.final_area > res.Core.Sizer.initial_area);
  check_true "circuit still validates" (Netlist.Circuit.validate c = [])

let sizer_mean_config_reduces_mean () =
  let c = prepared_alu () in
  let full0 = Ssta.Fullssta.run c in
  let mu0 = (Ssta.Fullssta.output_moments full0).Numerics.Clark.mean in
  let res = Core.Sizer.optimize ~config:Core.Sizer.mean_delay_config ~lib c in
  check_true "mean reduced"
    (res.Core.Sizer.final_moments.Numerics.Clark.mean < mu0);
  check_true "iterations recorded" (List.length res.Core.Sizer.iterations > 0)

let sizer_respects_iteration_limit () =
  let c = prepared_alu () in
  let config = { (small_stat_config 9.0) with Core.Sizer.max_iterations = 1 } in
  let res = Core.Sizer.optimize ~config ~lib c in
  check_true "at most 1 iteration" (List.length res.Core.Sizer.iterations <= 1)

let sizer_batch_mode_runs () =
  let c = prepared_alu () in
  let config =
    { (small_stat_config 3.0) with Core.Sizer.commit_mode = Core.Sizer.Batch;
      max_iterations = 5 }
  in
  let res = Core.Sizer.optimize ~config ~lib c in
  check_true "batch mode terminates"
    (match res.Core.Sizer.stop_reason with
    | Core.Sizer.Converged | Core.Sizer.No_candidate | Core.Sizer.Iteration_limit ->
        true)

let sizer_alpha_zero_equals_mean_config () =
  close "mean config alpha" 0.0
    (Core.Objective.alpha Core.Sizer.mean_delay_config.Core.Sizer.objective)

(* ---- Area recovery -------------------------------------------------------------- *)

let area_recovery_reclaims () =
  let c = prepared_alu () in
  (* grossly over-size everything, then recover *)
  List.iter
    (fun id ->
      let cell = Netlist.Circuit.cell_exn c id in
      Netlist.Circuit.set_cell c id
        (Cells.Library.max_cell lib ~fn:(Cells.Cell.fn cell)))
    (Netlist.Circuit.gates c);
  let r =
    Core.Area_recovery.recover ~objective:(Core.Objective.create ~alpha:3.0)
      ~lib c
  in
  check_true "area reclaimed" (r.Core.Area_recovery.area_after < r.Core.Area_recovery.area_before);
  check_true "downsizes counted" (r.Core.Area_recovery.downsized > 0);
  (* objective within the (small) budget *)
  check_true "cost within 2% of pre-recovery"
    (r.Core.Area_recovery.cost_after
    <= 1.02 *. Float.abs r.Core.Area_recovery.cost_before);
  check_true "still valid" (Netlist.Circuit.validate c = [])

let () =
  Alcotest.run "core"
    [
      ( "objective",
        [
          Alcotest.test_case "cost" `Quick objective_cost;
          Alcotest.test_case "negative alpha" `Quick objective_negative_alpha;
          Alcotest.test_case "outputs" `Quick objective_outputs;
        ] );
      ( "wnss",
        [
          Alcotest.test_case "cutoff dominance" `Quick wnss_cutoff_dominance;
          Alcotest.test_case "variance sensitivity" `Quick
            wnss_variance_sensitivity_prefers_high_sigma;
          Alcotest.test_case "sensitivity finite" `Quick wnss_sensitivity_positive;
          Alcotest.test_case "pick dominant stable" `Quick
            wnss_pick_dominant_order_independent;
          Alcotest.test_case "trace reaches input" `Quick wnss_trace_reaches_input;
          Alcotest.test_case "cone superset" `Quick wnss_cone_superset_of_path;
          Alcotest.test_case "forest contains paths" `Quick wnss_all_outputs_union;
        ] );
      ( "initial_sizing",
        [
          Alcotest.test_case "fanout target" `Quick
            initial_sizing_respects_fanout_target;
          Alcotest.test_case "idempotent" `Quick initial_sizing_idempotent;
          Alcotest.test_case "pick_cell" `Quick initial_sizing_pick_cell;
        ] );
      ( "window",
        [
          Alcotest.test_case "side-effect free" `Quick
            window_trials_are_side_effect_free;
          Alcotest.test_case "best never worse" `Quick window_best_never_worse;
          Alcotest.test_case "windowed mode" `Quick window_windowed_mode_runs;
          Alcotest.test_case "allocation pin" `Quick window_allocation_pin;
          Alcotest.test_case "clipped trial allocation pin" `Quick
            clipped_trial_allocation_pin;
          Alcotest.test_case "max0 is Float.max v 0.0" `Quick
            window_max0_is_float_max;
        ] );
      ( "sizer",
        [
          Alcotest.test_case "reduces sigma" `Quick sizer_reduces_sigma;
          Alcotest.test_case "mean config reduces mean" `Quick
            sizer_mean_config_reduces_mean;
          Alcotest.test_case "iteration limit" `Quick sizer_respects_iteration_limit;
          Alcotest.test_case "batch mode" `Quick sizer_batch_mode_runs;
          Alcotest.test_case "mean config alpha" `Quick
            sizer_alpha_zero_equals_mean_config;
        ] );
      ( "area_recovery",
        [
          Alcotest.test_case "reclaims" `Quick area_recovery_reclaims;
        ] );
    ]
