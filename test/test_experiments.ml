(* Tests for the experiment harness (small circuits only; the full paper
   reproduction lives in bench/main.exe). *)

open Test_util

let fig3_reproduces_the_paper () =
  let r = Experiments.Fig3.trace () in
  Alcotest.(check (list string))
    "WNSS path is X -> g2 -> g4"
    [ "X"; "g2"; "g4" ]
    (List.map Experiments.Fig3.name r.Experiments.Fig3.path);
  (* the interesting decision: at g2 the LOWER-mean, higher-sigma input g4
     wins over g3 — the paper's central point about statistical tracing *)
  check_true "g4 beats g3 despite the lower mean"
    (List.exists
       (fun (at, picked, _) ->
         at = Experiments.Fig3.G2 && picked = Experiments.Fig3.G4)
       r.Experiments.Fig3.decisions)

let fig3_arrivals_match_figure () =
  close "g2 mean" 392.0 (Experiments.Fig3.arrival Experiments.Fig3.G2).Numerics.Clark.mean;
  close "g4 sigma" 45.0
    (Numerics.Clark.sigma (Experiments.Fig3.arrival Experiments.Fig3.G4));
  check_int "X has two inputs" 2
    (List.length (Experiments.Fig3.contributions Experiments.Fig3.X))

let approx_erf_report () =
  let r = Experiments.Approx.erf_study () in
  check_true "two-decimal claim holds (≈0.011 worst case)"
    (r.Experiments.Approx.max_abs_error < 0.015)

let approx_max_report () =
  let r = Experiments.Approx.max_study ~cases:120 ~trials:8000 () in
  check_int "all cases ran" 120 r.Experiments.Approx.cases;
  check_true "fast mean close to exact"
    (r.Experiments.Approx.worst_mean_err_vs_exact < 0.03);
  check_true "exact Clark close to MC"
    (r.Experiments.Approx.worst_mean_err_exact_vs_mc < 0.03);
  check_true "cutoff fires for a sizable share"
    (r.Experiments.Approx.cutoff_fraction > 0.1)

let approx_cutoff_study () =
  let rows = Experiments.Approx.cutoff_study ~names:[ "alu2" ] ~lib () in
  match rows with
  | [ ("alu2", f) ] -> check_true "fraction in range" (f >= 0.0 && f <= 1.0)
  | _ -> Alcotest.fail "expected one row"

let pipeline_end_to_end_small () =
  (* full pipeline on the smallest suite circuit at one alpha *)
  let entry = Option.get (Benchgen.Iscas_like.find "alu2") in
  let baseline =
    Experiments.Pipeline.prepare ~lib (fun () -> entry.Benchgen.Iscas_like.build ~lib)
  in
  check_true "baseline sane"
    (baseline.Experiments.Pipeline.moments.Numerics.Clark.mean > 0.0);
  let r = Experiments.Pipeline.run_alpha ~lib baseline ~alpha:9.0 in
  check_true "sigma reduced" (r.Experiments.Pipeline.sigma_change_pct < -10.0);
  check_true "mean within 10%" (Float.abs r.Experiments.Pipeline.mean_change_pct < 10.0);
  check_true "area increased" (r.Experiments.Pipeline.area_change_pct > 0.0);
  (* the baseline circuit is untouched by the alpha run *)
  let full = Ssta.Fullssta.run baseline.Experiments.Pipeline.circuit in
  close ~tol:1e-9 "baseline circuit unchanged"
    baseline.Experiments.Pipeline.moments.Numerics.Clark.mean
    (Ssta.Fullssta.output_moments full).Numerics.Clark.mean

(* [Pipeline.prepare] prices the baseline with the mean-delay sizer's
   final FULLSSTA run instead of a second run over the same cells; on the
   quick subset the figure is the second run's to the bit. *)
let prepare_moments_match_a_fresh_run () =
  List.iter
    (fun name ->
      let entry = Option.get (Benchgen.Iscas_like.find name) in
      let baseline =
        Experiments.Pipeline.prepare ~lib (fun () ->
            entry.Benchgen.Iscas_like.build ~lib)
      in
      let m = baseline.Experiments.Pipeline.moments
      and fresh =
        Ssta.Fullssta.output_moments
          (Ssta.Fullssta.run baseline.Experiments.Pipeline.circuit)
      in
      let bits = Int64.bits_of_float in
      check_true (name ^ ": mean bit-equal")
        (Int64.equal (bits m.Numerics.Clark.mean) (bits fresh.Numerics.Clark.mean));
      check_true (name ^ ": var bit-equal")
        (Int64.equal (bits m.Numerics.Clark.var) (bits fresh.Numerics.Clark.var)))
    [ "alu1"; "alu2"; "alu3"; "c432"; "c499"; "c880" ]

(* [run_alpha] prices its result under the FULLSSTA settings its sizer and
   area recovery ran with: its final moments are a fresh default run's
   over the cells it leaves, to the bit. *)
let run_alpha_measures_under_its_config () =
  let entry = Option.get (Benchgen.Iscas_like.find "alu1") in
  let baseline =
    Experiments.Pipeline.prepare ~lib (fun () ->
        entry.Benchgen.Iscas_like.build ~lib)
  in
  let config = { Core.Sizer.default_config with max_iterations = 2 } in
  let r = Experiments.Pipeline.run_alpha ~config ~lib baseline ~alpha:3.0 in
  let m = r.Experiments.Pipeline.final_moments
  and fresh =
    Ssta.Fullssta.output_moments
      (Ssta.Fullssta.run r.Experiments.Pipeline.circuit)
  in
  let bits = Int64.bits_of_float in
  check_true "mean bit-equal"
    (Int64.equal (bits m.Numerics.Clark.mean) (bits fresh.Numerics.Clark.mean));
  check_true "var bit-equal"
    (Int64.equal (bits m.Numerics.Clark.var) (bits fresh.Numerics.Clark.var))

(* [Pipeline.run_alpha] as it stood when each stage priced its sizing
   afresh, verbatim up to module paths and the recovery and FULLSSTA
   settings, now defaults: recovery ran FULLSSTA again over the cells the
   sizer had just priced, and a last run priced recovery's cells again.
   The oracle the run-reusing pipeline must match. *)
module Parent_pipeline = struct
  open Experiments.Pipeline

  let run_alpha ?(ignore_lint = false) ?(recover = true)
      ?(config = Core.Sizer.default_config) ~lib (baseline : baseline) ~alpha =
    Obs.Span.with_ "pipeline.run_alpha" @@ fun () ->
    let started = Sys.time () in
    let circuit = Netlist.Circuit.copy baseline.circuit in
    let objective = Core.Objective.create ~alpha in
    let config = { config with Core.Sizer.objective } in
    let res = Core.Sizer.optimize ~ignore_lint ~config ~lib circuit in
    if recover then
      ignore (Core.Area_recovery.recover ~objective ~lib circuit);
    let full = Ssta.Fullssta.run circuit in
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
      runtime_s = Sys.time () -. started;
    }
end

(* [run_alpha] hands the sizer's final FULLSSTA run to area recovery and
   reports recovery's closing run, so one call prices the circuit 3 times
   with recovery (sizer start and end, recovery's close) and twice without
   it, where it priced 5 and 3 times. Every reported figure, to the bit,
   and every cell are the old pipeline's. *)
let run_alpha_prices_each_sizing_once () =
  let fullssta_nodes () =
    Option.value ~default:0
      (List.assoc_opt "fullssta.run.nodes" (Obs.Counters.dump ()))
  in
  let cells (r : Experiments.Pipeline.stat_run) =
    List.map
      (fun id ->
        Cells.Cell.name (Netlist.Circuit.cell_exn r.Experiments.Pipeline.circuit id))
      (Netlist.Circuit.gates r.Experiments.Pipeline.circuit)
  in
  let bits = Int64.bits_of_float in
  Obs.Sink.reset ();
  Obs.Sink.enable ();
  Fun.protect ~finally:Obs.Sink.disable @@ fun () ->
  List.iter
    (fun name ->
      let entry = Option.get (Benchgen.Iscas_like.find name) in
      let baseline =
        Experiments.Pipeline.prepare ~lib (fun () ->
            entry.Benchgen.Iscas_like.build ~lib)
      in
      let size = Netlist.Circuit.size baseline.Experiments.Pipeline.circuit in
      List.iter
        (fun (alpha, recover) ->
          let what =
            Printf.sprintf "%s alpha %g%s: %s" name alpha
              (if recover then "" else " without recovery")
          in
          let nodes0 = fullssta_nodes () in
          let r = Experiments.Pipeline.run_alpha ~recover ~lib baseline ~alpha in
          check_int (what "fullssta.run.nodes")
            ((if recover then 3 else 2) * size)
            (fullssta_nodes () - nodes0);
          let p = Parent_pipeline.run_alpha ~recover ~lib baseline ~alpha in
          List.iter
            (fun (field, f) ->
              check_true
                (what (field ^ " bit-equal"))
                (Int64.equal (bits (f p)) (bits (f r))))
            Experiments.Pipeline.
              [
                ("mean", fun r -> r.final_moments.Numerics.Clark.mean);
                ("var", fun r -> r.final_moments.Numerics.Clark.var);
                ("final_area", fun r -> r.final_area);
                ("mean_change_pct", fun r -> r.mean_change_pct);
                ("sigma_change_pct", fun r -> r.sigma_change_pct);
                ("final_sigma_over_mean", fun r -> r.final_sigma_over_mean);
                ("area_change_pct", fun r -> r.area_change_pct);
              ];
          check_int (what "iterations") p.Experiments.Pipeline.iterations
            r.Experiments.Pipeline.iterations;
          check_int (what "resizes") p.Experiments.Pipeline.resizes
            r.Experiments.Pipeline.resizes;
          Alcotest.(check (list string)) (what "cells") (cells p) (cells r))
        [ (3.0, true); (3.0, false); (9.0, true); (9.0, false) ])
    [ "c432"; "alu2" ];
  Obs.Sink.reset ()

let table1_row_small () =
  let entry = Option.get (Benchgen.Iscas_like.find "alu2") in
  let row = Experiments.Table1.run_circuit ~alphas:[ 3.0 ] ~lib entry in
  Alcotest.(check string) "name" "alu2" row.Experiments.Table1.name;
  check_true "gates counted" (row.Experiments.Table1.gates > 50);
  check_true "original sigma/mean positive"
    (row.Experiments.Table1.original_sigma_over_mean > 0.0);
  match row.Experiments.Table1.runs with
  | [ r ] ->
      check_true "sigma reduced" (r.Experiments.Pipeline.sigma_change_pct < 0.0);
      check_true "csv has rows"
        (String.length (Experiments.Table1.to_csv [ row ]) > 100)
  | _ -> Alcotest.fail "expected one run"

(* The domains clamp must be loud: asking for more workers than the host's
   recommended domain count (always true for [cores + 1]) has to bump the
   table1.domains.clamped counter instead of silently shrinking. Runs one
   tiny 1-iteration job so the clamp path — not the sizing — dominates.
   On a 1-core box this is also exactly the CI situation the counter was
   added for; note it rather than skipping. *)
let table1_domains_clamp () =
  let cores = Domain.recommended_domain_count () in
  if cores = 1 then
    prerr_endline "test_experiments: single core, clamp is the expected path";
  let sizer_config = { Core.Sizer.default_config with max_iterations = 1 } in
  Obs.Sink.reset ();
  Obs.Sink.enable ();
  Fun.protect ~finally:Obs.Sink.disable @@ fun () ->
  let rows =
    Experiments.Table1.run ~alphas:[ 3.0 ] ~sizer_config ~names:[ "alu2" ]
      ~domains:(cores + 1) ~lib ()
  in
  check_int "one row" 1 (List.length rows);
  let clamped =
    Option.value ~default:0
      (List.assoc_opt "table1.domains.clamped" (Obs.Counters.dump ()))
  in
  check_int "clamp counted" 1 clamped;
  Obs.Sink.reset ()

let () =
  Alcotest.run "experiments"
    [
      ( "fig3",
        [
          Alcotest.test_case "reproduces the paper" `Quick fig3_reproduces_the_paper;
          Alcotest.test_case "figure arrivals" `Quick fig3_arrivals_match_figure;
        ] );
      ( "approx",
        [
          Alcotest.test_case "erf report" `Quick approx_erf_report;
          Alcotest.test_case "max report" `Quick approx_max_report;
          Alcotest.test_case "cutoff study" `Quick approx_cutoff_study;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "end to end (alu2)" `Slow pipeline_end_to_end_small;
          Alcotest.test_case "prepare moments = a fresh FULLSSTA run" `Slow
            prepare_moments_match_a_fresh_run;
          Alcotest.test_case "run_alpha measures under its config" `Quick
            run_alpha_measures_under_its_config;
          Alcotest.test_case "run_alpha prices each sizing once" `Slow
            run_alpha_prices_each_sizing_once;
        ] );
      ( "table1",
        [
          Alcotest.test_case "single row (alu2)" `Slow table1_row_small;
          Alcotest.test_case "domains clamp is loud" `Slow table1_domains_clamp;
        ] );
    ]
