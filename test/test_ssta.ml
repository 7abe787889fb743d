(* Tests for the statistical timing engines: FULLSSTA, FASSTA, Monte Carlo,
   and their mutual agreement. *)

open Test_util

let chain_circuit bits =
  let bld = Netlist.Build.create ~lib ~name:"sschain" () in
  let a = Netlist.Build.input bld ~name:"a" in
  let rec go n prev = if n = 0 then prev else go (n - 1) (Netlist.Build.not_ bld prev) in
  let last = go bits a in
  ignore (Netlist.Build.output bld last);
  Netlist.Build.finish bld

(* ---- FULLSSTA ------------------------------------------------------------ *)

let fullssta_single_gate_matches_model () =
  let c = chain_circuit 1 in
  let full = Ssta.Fullssta.run c in
  let gate = List.hd (Netlist.Circuit.gates c) in
  let e = Ssta.Fullssta.electrical full in
  let d = (Sta.Electrical.arc_delays e gate).(0) in
  let strength = Cells.Cell.strength (Netlist.Circuit.cell_exn c gate) in
  let expected = Variation.Model.delay_moments Variation.Model.default ~delay:d ~strength in
  let m = Ssta.Fullssta.moments full gate in
  close ~tol:0.01 "single gate mean" expected.Numerics.Clark.mean m.Numerics.Clark.mean;
  close ~tol:0.05 "single gate sigma" (Numerics.Clark.sigma expected)
    (Numerics.Clark.sigma m)

let fullssta_chain_moments_add () =
  (* a pure chain has no max: moments must be the sums of arc moments *)
  let c = chain_circuit 8 in
  let full = Ssta.Fullssta.run c in
  let e = Ssta.Fullssta.electrical full in
  let expected_mean, expected_var =
    List.fold_left
      (fun (mu, var) gate ->
        let d = (Sta.Electrical.arc_delays e gate).(0) in
        let strength = Cells.Cell.strength (Netlist.Circuit.cell_exn c gate) in
        let mm = Variation.Model.delay_moments Variation.Model.default ~delay:d ~strength in
        (mu +. mm.Numerics.Clark.mean, var +. mm.Numerics.Clark.var))
      (0.0, 0.0) (Netlist.Circuit.gates c)
  in
  let out = Ssta.Fullssta.output_moments full in
  close ~tol:0.01 "chain mean adds" expected_mean out.Numerics.Clark.mean;
  close ~tol:0.05 "chain sigma adds" (Float.sqrt expected_var)
    (Numerics.Clark.sigma out)

let fullssta_vs_monte_carlo () =
  let c = Benchgen.Alu.generate ~lib ~bits:6 () in
  let _ = Core.Initial_sizing.apply ~lib c in
  (* validate at a gentle variation scale, where the independence
     assumption's reconvergence bias is small and real implementation bugs
     would show; the bias at production scale is documented and studied in
     EXPERIMENTS.md instead *)
  let model = Variation.Model.create ~systematic:0.15 ~random_floor:0.3 () in
  let full =
    Ssta.Fullssta.run ~config:{ Ssta.Fullssta.default_config with model } c
  in
  let fm = Ssta.Fullssta.output_moments full in
  let mc =
    Ssta.Monte_carlo.run
      ~config:{ Ssta.Monte_carlo.default_config with trials = 3000; model }
      c
  in
  let ms = Ssta.Monte_carlo.circuit_stats mc in
  close ~tol:0.02 "mean vs MC" (Numerics.Stats.mean ms) fm.Numerics.Clark.mean;
  close ~tol:0.15 "sigma vs MC" (Numerics.Stats.std ms) (Numerics.Clark.sigma fm)

let fullssta_yield_monotone () =
  let c = Benchgen.Alu.generate ~lib ~bits:4 () in
  let full = Ssta.Fullssta.run c in
  let m = Ssta.Fullssta.output_moments full in
  let mu = m.Numerics.Clark.mean in
  let y1 = Ssta.Fullssta.yield_at full ~period:(mu *. 0.8) in
  let y2 = Ssta.Fullssta.yield_at full ~period:mu in
  let y3 = Ssta.Fullssta.yield_at full ~period:(mu *. 1.2) in
  check_true "yield increases with period" (y1 <= y2 && y2 <= y3);
  check_true "median yield near half" (y2 > 0.2 && y2 < 0.8);
  close_abs ~tol:1e-9 "relaxed yield is 1" 1.0
    (Ssta.Fullssta.yield_at full ~period:(mu *. 3.0))

let fullssta_samples_config () =
  let c = Benchgen.Alu.generate ~lib ~bits:4 () in
  let coarse =
    Ssta.Fullssta.run
      ~config:{ Ssta.Fullssta.default_config with samples = 6 } c
  in
  let fine =
    Ssta.Fullssta.run
      ~config:{ Ssta.Fullssta.default_config with samples = 20 } c
  in
  let mc = Ssta.Fullssta.output_moments coarse in
  let mf = Ssta.Fullssta.output_moments fine in
  (* both resolutions agree on the mean to within a fraction of a percent *)
  close ~tol:0.02 "resolutions agree" mf.Numerics.Clark.mean mc.Numerics.Clark.mean

(* Two domains each propagate their own copy of c432 at the same time. The
   pdf kernels keep their intermediates in domain-local scratch, so every
   node pdf must still equal the serial run's. *)
let fullssta_domains_match_serial () =
  let c = Benchgen.Iscas_like.build_exn ~lib "c432" in
  let serial = Ssta.Fullssta.run c in
  let spawn () =
    let copy = Netlist.Circuit.copy c in
    Domain.spawn (fun () -> Ssta.Fullssta.run copy)
  in
  let d1 = spawn () in
  let d2 = spawn () in
  let runs = [ Domain.join d1; Domain.join d2 ] in
  for id = 0 to Netlist.Circuit.size c - 1 do
    List.iter
      (fun run ->
        if
          not
            (Numerics.Discrete_pdf.equal (Ssta.Fullssta.pdf serial id)
               (Ssta.Fullssta.pdf run id))
        then
          Alcotest.failf "node %s differs from the serial run"
            (Netlist.Circuit.node_name c id))
      runs
  done

(* ---- FASSTA --------------------------------------------------------------- *)

let fassta_chain_is_exact () =
  let c = chain_circuit 10 in
  let fast = Ssta.Fassta.run c in
  let full = Ssta.Fullssta.run c in
  let out_fast = Ssta.Fassta.output_moments c fast in
  let out_full = Ssta.Fullssta.output_moments full in
  (* no max operations on a chain: both engines must agree tightly *)
  close ~tol:0.01 "chain mean" out_full.Numerics.Clark.mean out_fast.Numerics.Clark.mean;
  close ~tol:0.05 "chain sigma" (Numerics.Clark.sigma out_full)
    (Numerics.Clark.sigma out_fast)

let fassta_cutoff_stats_counted () =
  let c = Benchgen.Alu.generate ~lib ~bits:6 () in
  let stats = Ssta.Fassta.make_stats () in
  let _ = Ssta.Fassta.run ~stats c in
  check_true "some maxes evaluated" (stats.Ssta.Fassta.cutoff_hits + stats.Ssta.Fassta.blended > 0);
  let f = Ssta.Fassta.cutoff_fraction stats in
  check_true "fraction in [0,1]" (f >= 0.0 && f <= 1.0)

(* Regression: a stats record with no maxes recorded used to yield 0/0 =
   nan, which poisoned downstream aggregation; it must read as 0. *)
let fassta_cutoff_fraction_empty () =
  let stats = Ssta.Fassta.make_stats () in
  close ~tol:0.0 "fresh stats fraction" 0.0 (Ssta.Fassta.cutoff_fraction stats)

let fassta_propagate_boundary () =
  let c = tiny_circuit () in
  let e = Sta.Electrical.compute c in
  let n1 = Test_util.find_exn c ~name:"n1" in
  let n3 = Test_util.find_exn c ~name:"n3" in
  (* boundary puts n1's arrival far ahead: n3 must inherit it *)
  let boundary id =
    if id = n1 then moments ~mu:500.0 ~sigma:5.0 else moments ~mu:0.0 ~sigma:0.0
  in
  let table =
    Ssta.Fassta.propagate ~model:Variation.Model.default ~circuit:c ~electrical:e
      ~boundary [| n3 |]
  in
  let m = Hashtbl.find table n3 in
  check_true "dominated by boundary arrival" (m.Numerics.Clark.mean > 500.0)

let fassta_propagate_into_matches_run () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:5 () in
  let fast = Ssta.Fassta.run c in
  let e = Sta.Electrical.compute c in
  let out = Array.make (Netlist.Circuit.size c) (moments ~mu:0.0 ~sigma:0.0) in
  Ssta.Fassta.propagate_into ~model:Variation.Model.default ~circuit:c ~electrical:e out;
  List.iter
    (fun o ->
      close ~tol:1e-9 "same mean" fast.(o).Numerics.Clark.mean out.(o).Numerics.Clark.mean;
      close ~tol:1e-9 "same var" fast.(o).Numerics.Clark.var out.(o).Numerics.Clark.var)
    (Netlist.Circuit.outputs c)

(* [run] fills one array through [propagate_into]; [propagate], over every
   node with the input arrival as its boundary, folds the same
   [max_fast_resolved] calls in the same order through a Hashtbl. Every
   node's moments, the cutoff stats and the node counter must agree. *)
let fassta_run_matches_propagate () =
  let dag =
    Benchgen.Random_dag.generate ~lib
      { Benchgen.Random_dag.profile_name = "rd"; inputs = 16; outputs = 6;
        gates = 150; depth = 10; seed = 3 }
  in
  let bits = Int64.bits_of_float in
  let nodes () =
    Option.value ~default:0
      (List.assoc_opt "fassta.propagate.nodes" (Obs.Counters.dump ()))
  in
  Obs.Sink.reset ();
  Obs.Sink.enable ();
  Fun.protect ~finally:Obs.Sink.disable @@ fun () ->
  List.iter
    (fun (name, c) ->
      let run_stats = Ssta.Fassta.make_stats ()
      and prop_stats = Ssta.Fassta.make_stats () in
      let n0 = nodes () in
      let fast = Ssta.Fassta.run ~stats:run_stats c in
      let n1 = nodes () in
      let table =
        Ssta.Fassta.propagate ~stats:prop_stats ~model:Variation.Model.default
          ~circuit:c ~electrical:(Sta.Electrical.compute c)
          ~boundary:(fun _ ->
            Numerics.Clark.moments ~mean:Sta.Electrical.input_arrival ~var:0.0)
          (Array.of_list (Netlist.Circuit.topological c))
      in
      check_int (name ^ ": nodes counted") (n1 - n0) (nodes () - n1);
      Array.iteri
        (fun id (m : Numerics.Clark.moments) ->
          let p = Hashtbl.find table id in
          check_true
            (Printf.sprintf "%s node %d bit-equal" name id)
            (Int64.equal (bits m.mean) (bits p.Numerics.Clark.mean)
            && Int64.equal (bits m.var) (bits p.Numerics.Clark.var)))
        fast;
      check_int (name ^ ": cutoff hits") prop_stats.Ssta.Fassta.cutoff_hits
        run_stats.Ssta.Fassta.cutoff_hits;
      check_int (name ^ ": blended") prop_stats.Ssta.Fassta.blended
        run_stats.Ssta.Fassta.blended)
    [ ("c432", Benchgen.Iscas_like.build_exn ~lib "c432"); ("random DAG", dag) ]

let fassta_exact_tracks_quadratic () =
  let c = Benchgen.Alu.generate ~lib ~bits:6 () in
  let e = Sta.Electrical.compute c in
  let n = Netlist.Circuit.size c in
  let quad = Array.make n (moments ~mu:0.0 ~sigma:0.0) in
  let exact = Array.make n (moments ~mu:0.0 ~sigma:0.0) in
  Ssta.Fassta.propagate_into ~model:Variation.Model.default ~circuit:c ~electrical:e quad;
  Ssta.Fassta.propagate_into ~exact:true ~model:Variation.Model.default ~circuit:c
    ~electrical:e exact;
  List.iter
    (fun o ->
      close ~tol:0.05 "means track" exact.(o).Numerics.Clark.mean
        quad.(o).Numerics.Clark.mean)
    (Netlist.Circuit.outputs c)

(* ---- Monte Carlo ---------------------------------------------------------- *)

let mc_deterministic_by_seed () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:4 () in
  let cfg = { Ssta.Monte_carlo.default_config with trials = 50; seed = 123 } in
  let r1 = Ssta.Monte_carlo.run ~config:cfg c in
  let r2 = Ssta.Monte_carlo.run ~config:cfg c in
  Alcotest.(check (array (float 1e-12)))
    "same samples" r1.Ssta.Monte_carlo.circuit_delay r2.Ssta.Monte_carlo.circuit_delay

let mc_yield_bounds () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:4 () in
  let r =
    Ssta.Monte_carlo.run ~config:{ Ssta.Monte_carlo.default_config with trials = 200 } c
  in
  close_abs ~tol:0.0 "yield 0 at tiny period" 0.0 (Ssta.Monte_carlo.yield_at r ~period:0.0);
  close_abs ~tol:0.0 "yield 1 at huge period" 1.0
    (Ssta.Monte_carlo.yield_at r ~period:1e9);
  let q10 = Ssta.Monte_carlo.quantile r 0.1 in
  let q90 = Ssta.Monte_carlo.quantile r 0.9 in
  check_true "quantiles ordered" (q10 <= q90)

let mc_per_output_recorded () =
  let c = tiny_circuit () in
  let r =
    Ssta.Monte_carlo.run ~config:{ Ssta.Monte_carlo.default_config with trials = 100 } c
  in
  let o = List.hd (Netlist.Circuit.outputs c) in
  match Ssta.Monte_carlo.output_stats r o with
  | Some s -> check_int "all trials" 100 (Numerics.Stats.count s)
  | None -> Alcotest.fail "missing per-output stats"

let mc_per_gate_sharing_increases_sigma () =
  let c = Benchgen.Ecc.hamming_corrector ~lib ~data_bits:11 () in
  let base = { Ssta.Monte_carlo.default_config with trials = 1500 } in
  let arc = Ssta.Monte_carlo.run ~config:base c in
  let gate =
    Ssta.Monte_carlo.run
      ~config:{ base with sharing = Ssta.Monte_carlo.Per_gate } c
  in
  let s_arc = Numerics.Stats.std (Ssta.Monte_carlo.circuit_stats arc) in
  let s_gate = Numerics.Stats.std (Ssta.Monte_carlo.circuit_stats gate) in
  check_true "within-gate correlation does not reduce sigma" (s_gate > 0.8 *. s_arc)

let mc_global_correlation_widens () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:8 () in
  let base = { Ssta.Monte_carlo.default_config with trials = 1500 } in
  let indep = Ssta.Monte_carlo.run ~config:base c in
  let corr =
    Ssta.Monte_carlo.run
      ~config:
        { base with structure = Variation.Correlated.create ~global_share:0.7 () }
      c
  in
  check_true "die-to-die factor widens the distribution"
    (Numerics.Stats.std (Ssta.Monte_carlo.circuit_stats corr)
    > Numerics.Stats.std (Ssta.Monte_carlo.circuit_stats indep))

(* ---- Monte Carlo stream oracle ------------------------------------------ *)

(* The trial loop as it stood before it drew through [Rng.fill_gaussian],
   verbatim, drawing from the verbatim generator [Oracle_rng]. Every Monte
   Carlo figure depends on this stream, so [Monte_carlo.run] must return
   its samples bit for bit. *)
module Oracle_mc = struct
  module Numerics = struct
    include Numerics
    module Rng = Oracle_rng
  end

  open Ssta.Monte_carlo

  let run ?(config = default_config) circuit =
    if config.trials < 1 then invalid_arg "Monte_carlo.run: trials < 1";
    let electrical = Sta.Electrical.compute circuit in
    let n = Netlist.Circuit.size circuit in
    let order = Netlist.Circuit.topological circuit in
    let outputs = Netlist.Circuit.outputs circuit in
    (* Pre-compute per-arc (nominal delay, sigma). *)
    let arc_sigma =
      Array.init n (fun id ->
          match Netlist.Circuit.cell circuit id with
          | None -> [||]
          | Some cell ->
              let strength = Cells.Cell.strength cell in
              Array.map
                (fun delay -> Variation.Model.sigma config.model ~delay ~strength)
                (Sta.Electrical.arc_delays electrical id))
    in
    let rng = Numerics.Rng.create ~seed:config.seed in
    let structure = config.structure in
    let wg = Float.sqrt structure.Variation.Correlated.global_share in
    let wr = Float.sqrt structure.Variation.Correlated.regional_share in
    let we = Float.sqrt (Variation.Correlated.residual_share structure) in
    let regions = structure.Variation.Correlated.regions in
    let arrival = Array.make n 0.0 in
    let circuit_delay = Array.make config.trials 0.0 in
    let per_output = List.map (fun o -> (o, Array.make config.trials 0.0)) outputs in
    for trial = 0 to config.trials - 1 do
      let g = Numerics.Rng.gaussian rng in
      let regional = Array.init regions (fun _ -> Numerics.Rng.gaussian rng) in
      let common id = (wg *. g) +. (wr *. regional.(id mod regions)) in
      List.iter
        (fun id ->
          let fanins = Netlist.Circuit.fanins circuit id in
          if Array.length fanins = 0 then
            arrival.(id) <- Sta.Electrical.input_arrival
          else begin
            let arcs = Sta.Electrical.arc_delays electrical id in
            let sigmas = arc_sigma.(id) in
            let base = common id in
            let gate_eps =
              match config.sharing with
              | Per_gate -> Numerics.Rng.gaussian rng
              | Per_arc -> 0.0
            in
            let at = ref Float.neg_infinity in
            Array.iteri
              (fun k fi ->
                let eps =
                  match config.sharing with
                  | Per_gate -> gate_eps
                  | Per_arc -> Numerics.Rng.gaussian rng
                in
                let z = base +. (we *. eps) in
                (* No clamping at zero: the variation model is normal by
                   construction (as in the paper and in both SSTA engines), so
                   the reference keeps the full normal tail for consistency. *)
                let d = arcs.(k) +. (sigmas.(k) *. z) in
                at := Float.max !at (arrival.(fi) +. d))
              fanins;
            arrival.(id) <- !at
          end)
        order;
      let worst =
        List.fold_left (fun acc o -> Float.max acc arrival.(o)) Float.neg_infinity
          outputs
      in
      circuit_delay.(trial) <- worst;
      List.iter (fun (o, arr) -> arr.(trial) <- arrival.(o)) per_output
    done;
    { config; circuit_delay; per_output }
end

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let oracle_circuits () =
  let dag =
    Benchgen.Random_dag.generate ~lib
      {
        Benchgen.Random_dag.profile_name = "mc_dag";
        inputs = 24;
        outputs = 12;
        gates = 180;
        depth = 14;
        seed = 5;
      }
  in
  List.map
    (fun c ->
      ignore (Core.Initial_sizing.apply ~lib c);
      c)
    (dag :: List.map (Benchgen.Iscas_like.build_exn ~lib) [ "c432"; "c880"; "alu2" ])

(* seeds x structures x sharings x trial counts; the rejection seed sends
   the first draw of the first trial through Box–Muller's redraw *)
let oracle_configs =
  let open Ssta.Monte_carlo in
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun structure ->
          List.concat_map
            (fun sharing ->
              List.map
                (fun trials ->
                  { default_config with trials; seed; structure; sharing })
                [ 1; 40 ])
            [ Per_arc; Per_gate ])
        [
          Variation.Correlated.independent;
          Variation.Correlated.create ~global_share:0.3 ~regional_share:0.2
            ~regions:4 ();
          Variation.Correlated.create ~global_share:0.5 ();
        ])
    [ 1; 7; 77; 123456789; rejection_seed ]

(* Every sample, of the circuit delay and of each output, in every
   configuration. *)
let mc_matches_oracle_stream () =
  check_true "rejection seed: first uniform is 0.0"
    (Numerics.Rng.float (Numerics.Rng.create ~seed:rejection_seed) = 0.0);
  check_int "configurations" (5 * 3 * 2 * 2) (List.length oracle_configs);
  List.iter
    (fun c ->
      List.iter
        (fun (config : Ssta.Monte_carlo.config) ->
          let r = Ssta.Monte_carlo.run ~config c in
          let o = Oracle_mc.run ~config c in
          let what =
            Printf.sprintf "%s seed=%d %s %s trials=%d" (Netlist.Circuit.name c)
              config.seed
              (Fmt.str "%a" Variation.Correlated.pp config.structure)
              (match config.sharing with Per_arc -> "per-arc" | Per_gate -> "per-gate")
              config.trials
          in
          check_true (what ^ ": circuit_delay")
            (same_bits r.circuit_delay o.circuit_delay);
          check_true (what ^ ": outputs")
            (List.map fst r.per_output = List.map fst o.per_output);
          List.iter2
            (fun (id, a) (_, b) ->
              check_true (Printf.sprintf "%s: output %d" what id) (same_bits a b))
            r.per_output o.per_output)
        oracle_configs)
    (oracle_circuits ())

(* The trial loop allocates nothing: the difference between 1000 and 100
   trials on c432 after initial sizing, each run after a warm-up, is the
   per-trial cost. The loop that drew one boxed Gaussian at a time
   allocated 12,816 words per trial here. *)
let mc_allocation_pin () =
  let c = Benchgen.Iscas_like.build_exn ~lib "c432" in
  ignore (Core.Initial_sizing.apply ~lib c);
  let words trials =
    let config = { Ssta.Monte_carlo.default_config with trials } in
    ignore (Sys.opaque_identity (Ssta.Monte_carlo.run ~config c));
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Ssta.Monte_carlo.run ~config c));
    Gc.minor_words () -. w0
  in
  let per_trial = (words 1000 -. words 100) /. 900.0 in
  check_true
    (Printf.sprintf "minor words per trial %.2f <= 16" per_trial)
    (per_trial <= 16.0)

(* ---- Compare --------------------------------------------------------------- *)

let compare_reports () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:4 () in
  let `Full full_r, `Fast fast_r =
    Ssta_compare.engines_vs_monte_carlo
      ~mc_config:{ Ssta.Monte_carlo.default_config with trials = 800 }
      c
  in
  check_true "full report has outputs"
    (List.length full_r.Ssta_compare.per_output = 5);
  check_true "fast report has outputs"
    (List.length fast_r.Ssta_compare.per_output = 5);
  check_true "full engine mean within 5%" (full_r.Ssta_compare.worst_mean_rel_err < 0.05);
  check_true "fast engine mean within 8%" (fast_r.Ssta_compare.worst_mean_rel_err < 0.08)

let () =
  Alcotest.run "ssta"
    [
      ( "fullssta",
        [
          Alcotest.test_case "single gate" `Quick fullssta_single_gate_matches_model;
          Alcotest.test_case "chain moments add" `Quick fullssta_chain_moments_add;
          Alcotest.test_case "vs monte carlo" `Quick fullssta_vs_monte_carlo;
          Alcotest.test_case "yield monotone" `Quick fullssta_yield_monotone;
          Alcotest.test_case "sampling resolutions agree" `Quick
            fullssta_samples_config;
          Alcotest.test_case "two domains match serial" `Quick
            fullssta_domains_match_serial;
        ] );
      ( "fassta",
        [
          Alcotest.test_case "chain is exact" `Quick fassta_chain_is_exact;
          Alcotest.test_case "cutoff stats" `Quick fassta_cutoff_stats_counted;
          Alcotest.test_case "cutoff fraction empty" `Quick
            fassta_cutoff_fraction_empty;
          Alcotest.test_case "boundary propagation" `Quick fassta_propagate_boundary;
          Alcotest.test_case "propagate_into matches run" `Quick
            fassta_propagate_into_matches_run;
          Alcotest.test_case "run = propagate, bit for bit" `Quick
            fassta_run_matches_propagate;
          Alcotest.test_case "exact tracks quadratic" `Quick
            fassta_exact_tracks_quadratic;
        ] );
      ( "monte_carlo",
        [
          Alcotest.test_case "deterministic" `Quick mc_deterministic_by_seed;
          Alcotest.test_case "yield bounds" `Quick mc_yield_bounds;
          Alcotest.test_case "per-output stats" `Quick mc_per_output_recorded;
          Alcotest.test_case "per-gate sharing" `Quick
            mc_per_gate_sharing_increases_sigma;
          Alcotest.test_case "global correlation widens" `Quick
            mc_global_correlation_widens;
          Alcotest.test_case "stream = oracle, bit for bit" `Quick
            mc_matches_oracle_stream;
          Alcotest.test_case "trial allocation pin" `Quick mc_allocation_pin;
        ] );
      ("compare", [ Alcotest.test_case "reports" `Quick compare_reports ]);
    ]
