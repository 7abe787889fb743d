(* The per-layer metrics of the traced run: names, units, and the
   extraction from Obs counters and span totals. A layer that does no work
   in a workload reports 0. *)

let metrics =
  [
    ("netlist.parse_s", "s");
    ("netlist.parse_mb_per_s", "MB/s");
    ("lint.check_s", "s");
    ("cells.library_s", "s");
    ("cells.lut_queries", "count");
    ("cells.memo_hit_ratio", "ratio");
    ("sta.electrical_nodes", "count");
    ("sta.electrical_ns_per_node", "ns");
    ("ssta.fullssta_s", "s");
    ("ssta.fullssta_nodes", "count");
    ("ssta.pdf_points", "count");
    ("ssta.fassta_nodes", "count");
    ("ssta.mc_s", "s");
    ("numerics.clark_ops", "count");
    ("numerics.clark_ns_per_op", "ns");
    ("core.prepare_s", "s");
    ("core.run_alpha_s", "s");
    ("core.iteration_s", "s");
    ("core.windows_evaluated", "count");
    ("core.trial_visits", "count");
    ("core.cell_evals", "count");
    ("core.moves_committed", "count");
    ("core.commit_visits", "count");
    ("core.move_yield", "ratio");
    ("core.best_size_us", "us");
    ("core.drain_est_share", "ratio");
    ("core.wnss_s", "s");
    ("core.sigma_reduction_pct", "%");
    ("core.area_increase_pct", "%");
    ("core.mean_change_pct", "%");
    ("serve.exec_s.p50", "s");
    ("serve.exec_s.p95", "s");
    ("serve.wait_s.p50", "s");
    ("serve.wait_s.p95", "s");
    ("serve.batch_size_mean", "count");
    ("serve.netlist_hit_ratio", "ratio");
    ("serve.library_hit_ratio", "ratio");
    ("serve.errors", "count");
    ("serve.protocol_us", "us");
    ("gen.late_s.p95", "s");
    ("obs.trace_overhead_pct", "%");
    ("obs.coverage", "ratio");
  ]

let counter counters name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name counters))

(* Work counts read from Obs counters (in-process, or the daemon's dump). *)
let of_counters counters =
  let c = counter counters in
  let hits = c "cells.memo.hits" and misses = c "cells.memo.misses" in
  let windows = c "sizer.windows.evaluated" and moves = c "sizer.moves.committed" in
  [
    ("cells.lut_queries", c "lut.delay_queries" +. c "lut.slew_queries" +. c "lut.fused_queries");
    ("cells.memo_hit_ratio", Quantile.ratio hits (hits +. misses));
    ("sta.electrical_nodes", c "electrical.compute.nodes" +. c "electrical.update.visits");
    ("ssta.fullssta_nodes", c "fullssta.run.nodes" +. c "fullssta.update.visits");
    ("ssta.pdf_points", c "pdf.sum.points" +. c "pdf.max2.points");
    ("ssta.fassta_nodes", c "fassta.propagate.nodes");
    ("numerics.clark_ops", c "clark.max_exact.calls" +. c "kernels.fold.ops" +. c "kernels.lanes.ops");
    ("core.windows_evaluated", windows);
    ("core.trial_visits", c "window.trial.visits");
    ("core.cell_evals", c "window.trial.cell_evals");
    ("core.moves_committed", moves);
    ("core.commit_visits", c "window.commit.visits");
    ("core.move_yield", Quantile.ratio moves windows);
  ]

(* Times read from the program's own Obs spans (name -> total seconds). *)
let of_obs_spans total =
  [
    ("ssta.fullssta_s", total "fullssta.run" +. total "fullssta.update");
    ("core.iteration_s", total "sizer.iteration");
  ]

(* ---- microbenchmarks on the workload's own data (Obs gate off) ---- *)

(* Seconds per call of [f]: the median over [batches] timed batches, each
   repeating [f] for at least [budget / batches] seconds. *)
let per_call ?(budget = 0.3) ?(batches = 7) f =
  let slice = budget /. float_of_int batches in
  let batch () =
    let t0 = Clock.now () in
    let rec go reps =
      f ();
      let dt = Clock.now () -. t0 in
      if dt < slice then go (reps + 1) else dt /. float_of_int reps
    in
    go 1
  in
  Quantile.median (List.init batches (fun _ -> batch ()))

(* Arrival-moment pairs at multi-input gates: what Clark max sees. *)
let moment_pairs circuits =
  List.concat_map
    (fun c ->
      let full = Ssta.Fullssta.run c in
      List.filter_map
        (fun g ->
          match Netlist.Circuit.fanins c g with
          | [||] | [| _ |] -> None
          | f -> Some (Ssta.Fullssta.moments full f.(0), Ssta.Fullssta.moments full f.(1)))
        (Netlist.Circuit.gates c))
    circuits
  |> Array.of_list

let clark_ns_per_op circuits =
  let pairs = moment_pairs circuits in
  if Array.length pairs = 0 then 0.0
  else begin
    let t =
      per_call (fun () ->
          Array.iter
            (fun (a, b) -> ignore (Sys.opaque_identity (Numerics.Clark.max_exact a b)))
            pairs)
    in
    t *. 1e9 /. float_of_int (Array.length pairs)
  end

let electrical_ns_per_node circuits =
  let nodes = Quantile.sum (List.map (fun c -> float_of_int (Netlist.Circuit.size c)) circuits) in
  if nodes = 0.0 then 0.0
  else
    per_call (fun () -> List.iter (fun c -> ignore (Sta.Electrical.compute c)) circuits)
    *. 1e9 /. nodes

(* Window.best_size timed from outside on each WNSS-path gate of each
   final circuit, on a default window over a fresh FULLSSTA annotation.
   Each gate is evaluated once untimed first, so the arc memo is as warm
   as it is inside a sizing run, where every gate recurs each iteration. *)
let best_size_us ~lib sized =
  let model = Variation.Model.default in
  let depth = Core.Sizer.default_config.Core.Sizer.window_depth in
  let calls, total =
    List.fold_left
      (fun (calls, total) (alpha, c) ->
        let c = Netlist.Circuit.copy c in
        let full = Ssta.Fullssta.run c in
        let objective = Core.Objective.create ~alpha in
        let window = Core.Window.create ~circuit:c ~model ~objective ~full () in
        let path = Core.Wnss.trace ~model c full in
        List.fold_left
          (fun (calls, total) g ->
            if Netlist.Circuit.is_input c g then (calls, total)
            else
              let sub = Netlist.Cone.extract c ~pivot:g ~depth in
              ignore (Core.Window.best_size window ~lib sub);
              let _, dt = Clock.time (fun () -> Core.Window.best_size window ~lib sub) in
              (calls + 1, total +. dt))
          (calls, total) path)
      (0, 0.0) sized
  in
  if calls = 0 then 0.0 else total *. 1e6 /. float_of_int calls

let library_s () = snd (Clock.time (fun () -> Cells.Library.generate ()))
