(* Benchmark harness: regenerates every table and figure of the paper, then
   runs Bechamel micro-benchmarks of the engines involved in each one.

     dune exec bench/main.exe               -- full reproduction (Table 1 over
                                               the whole suite; takes minutes)
     dune exec bench/main.exe -- --quick    -- small-circuit subset
     dune exec bench/main.exe -- table1|fig1|fig3|fig4|approx|ablation|micro|incremental|serve|counters|statrace|statflow

   --json additionally emits machine-readable BENCH_micro.json /
   BENCH_incremental.json (written through Obs.Json);
   --smoke is the tiny-quota --quick variant behind the @bench-smoke alias.

   Absolute numbers are not expected to match the paper (our substrate is a
   generated library and profile-matched circuits, not the authors' 90nm
   flow); EXPERIMENTS.md tracks paper-vs-measured shape for every artifact. *)

let lib = Lazy.force Cells.Library.default

(* --smoke: tiny-quota variant of --quick for the @bench-smoke alias — just
   enough work to prove the harness and the JSON emitters still function. *)
let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv
let quick = smoke || Array.exists (fun a -> a = "--quick") Sys.argv
let json = Array.exists (fun a -> a = "--json") Sys.argv

let wants section =
  let explicit =
    Array.to_list Sys.argv |> List.tl
    |> List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--"))
  in
  match explicit with [] -> true | names -> List.mem section names

let heading title = Fmt.pr "@.=== %s ===@." title

(* ---- BENCH documents: Obs.Json values, written indented --------------- *)

module J = Obs.Json

let jint n = J.Num (float_of_int n)

(* Arrays and objects one member per line; every atom, key included, is
   Obs.Json's compact text. *)
let rec emit_json b ~indent (v : J.t) =
  let pad n = String.make n ' ' in
  let block opening closing items emit_item =
    Buffer.add_string b (opening ^ "\n");
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b (pad (indent + 2));
        emit_item item)
      items;
    Buffer.add_string b ("\n" ^ pad indent ^ closing)
  in
  match v with
  | J.Arr (_ :: _ as items) ->
      block "[" "]" items (emit_json b ~indent:(indent + 2))
  | J.Obj (_ :: _ as fields) ->
      block "{" "}" fields (fun (k, item) ->
          Buffer.add_string b (J.to_string (J.Str k) ^ ": ");
          emit_json b ~indent:(indent + 2) item)
  | atom -> Buffer.add_string b (J.to_string atom)

(* BENCH_PREFIX lets two bench invocations coexist in one build directory:
   the smoke run and the counter gate both emit BENCH_counters.json, and
   dune runs their rules concurrently under @ci. *)
let write_json path v =
  let path =
    match Sys.getenv_opt "BENCH_PREFIX" with
    | Some p -> p ^ path
    | None -> path
  in
  let b = Buffer.create 4096 in
  emit_json b ~indent:0 v;
  Buffer.add_char b '\n';
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Fmt.pr "  wrote %s@." path

(* ---- Table 1 ------------------------------------------------------------- *)

let quick_names = [ "alu1"; "alu2"; "alu3"; "c432"; "c499"; "c880" ]

let run_table1 () =
  heading "Table 1 — sigma/mean reduction across the benchmark suite";
  let names = if quick then quick_names else Benchgen.Iscas_like.names in
  let rows = Experiments.Table1.run ~names ~lib () in
  Fmt.pr "%a" Experiments.Table1.pp rows;
  let shape = Experiments.Table1.shape rows in
  Fmt.pr
    "shape: sigma reduced everywhere=%b, alpha-monotone fraction=%.2f, mean \
     within 10%%=%b, area increases=%b@."
    shape.Experiments.Table1.all_sigma_reduced
    shape.Experiments.Table1.monotone_alpha_fraction
    shape.Experiments.Table1.mean_within_10_pct
    shape.Experiments.Table1.area_increases

(* ---- figures ------------------------------------------------------------- *)

let run_fig1 () =
  heading "Fig. 1 — output delay pdf at three optimization points";
  let r = Experiments.Fig1.run ~lib () in
  Fmt.pr "%a" Experiments.Fig1.pp r;
  Fmt.pr "  pdf series (delay_ps probability_mass):@.";
  List.iter
    (fun (label, points) ->
      Fmt.pr "  # %s@." label;
      List.iter (fun (x, p) -> Fmt.pr "  %.2f %.5f@." x p) points)
    (Experiments.Fig1.to_series r)

let run_fig3 () =
  heading "Fig. 3 — WNSS tracing on the paper's 6-gate example";
  Fmt.pr "%a" Experiments.Fig3.pp (Experiments.Fig3.trace ())

let run_fig4 () =
  heading "Fig. 4 — normalized mean/sigma trade-off for c432";
  Fmt.pr "%a" Experiments.Fig4.pp (Experiments.Fig4.run ~lib ())

let run_approx () =
  heading "Sec. 4.3 — approximation study";
  Fmt.pr "%a" Experiments.Approx.pp_erf (Experiments.Approx.erf_study ());
  Fmt.pr "%a" Experiments.Approx.pp_max
    (Experiments.Approx.max_study ~cases:(if quick then 150 else 500) ());
  Fmt.pr "%a" Experiments.Approx.pp_cutoffs
    (Experiments.Approx.cutoff_study ~lib ())

let run_ablation () =
  heading "ablation — sizer design choices (c432, alpha=9)";
  Fmt.pr "%a" Experiments.Ablation.pp (Experiments.Ablation.run ~lib ())

(* ---- Bechamel micro-benchmarks -------------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let alu = Benchgen.Alu.generate ~lib ~bits:8 () in
  let _ = Core.Initial_sizing.apply ~lib alu in
  let c432 = Benchgen.Iscas_like.build_exn ~lib "c432" in
  let _ = Core.Initial_sizing.apply ~lib c432 in
  let electrical = Sta.Electrical.compute c432 in
  let scratch =
    Array.make (Netlist.Circuit.size c432)
      (Numerics.Clark.moments ~mean:0.0 ~var:0.0)
  in
  let a = Numerics.Clark.moments ~mean:100.0 ~var:81.0 in
  let b = Numerics.Clark.moments ~mean:104.0 ~var:144.0 in
  let pa = Numerics.Discrete_pdf.of_normal ~samples:12 ~mean:100.0 ~sigma:9.0 () in
  let pb = Numerics.Discrete_pdf.of_normal ~samples:12 ~mean:104.0 ~sigma:12.0 () in
  let pa48 = Numerics.Discrete_pdf.of_normal ~samples:48 ~mean:100.0 ~sigma:9.0 () in
  let pb48 = Numerics.Discrete_pdf.of_normal ~samples:48 ~mean:104.0 ~sigma:12.0 () in
  (* FULLSSTA's arc step at its real shape: a resampled arrival (24 points,
     built as FULLSSTA builds one) plus a 12-point arc. Its 288 cross points
     are past the 256-word limit where a materialized sum would leave the
     minor heap; two 12-point pdfs (144 points) stay under it. *)
  let arrival = Numerics.Discrete_pdf.sum ~samples:12 pa pb in
  let arc = Numerics.Discrete_pdf.of_normal ~samples:12 ~mean:20.0 ~sigma:3.0 () in
  let rng = Numerics.Rng.create ~seed:77 in
  let draws = Array.make 1000 0.0 in
  let cell = List.hd (Cells.Library.cells lib) in
  (* one candidate of the sizer's inner loop: a mid-circuit c432 gate's
     depth-2 window and its strongest size, on the Production window the
     sizer runs (over a copy, so the other c432 tests keep their cells) *)
  let c432w = Netlist.Circuit.copy c432 in
  let window =
    Core.Window.create ~engine:Core.Window.Production ~circuit:c432w
      ~model:Variation.Model.default
      ~objective:(Core.Objective.create ~alpha:3.0)
      ~full:(Ssta.Fullssta.run c432w) ()
  in
  let pivot =
    let gates = Netlist.Circuit.gates c432w in
    List.nth gates (List.length gates / 2)
  in
  let sub = Netlist.Cone.extract c432w ~pivot ~depth:2 in
  let strongest =
    let current = Netlist.Circuit.cell_exn c432w pivot in
    Cells.Library.max_cell lib ~fn:(Cells.Cell.fn current)
  in
  [
    (* Table 1's engines: the nested-analysis speed gap FASSTA exists for *)
    Test.make ~name:"fassta_c432_pass"
      (Staged.stage (fun () ->
           Ssta.Fassta.propagate_into ~model:Variation.Model.default
             ~circuit:c432 ~electrical scratch));
    Test.make ~name:"fullssta_c432_pass"
      (Staged.stage (fun () -> ignore (Ssta.Fullssta.run c432)));
    Test.make ~name:"deterministic_sta_c432"
      (Staged.stage (fun () -> ignore (Sta.Analysis.analyze c432)));
    Test.make ~name:"monte_carlo_100_trials_alu8"
      (Staged.stage (fun () ->
           ignore
             (Ssta.Monte_carlo.run
                ~config:{ Ssta.Monte_carlo.default_config with trials = 100 }
                alu)));
    (* the floor under a stream-identical Monte Carlo: Box–Muller's libm
       log and cos per draw, which the trial loop calls once per trial *)
    Test.make ~name:"rng_fill_gaussian_1000"
      (Staged.stage (fun () ->
           Numerics.Rng.fill_gaussian rng draws ~pos:0 ~len:1000));
    (* the timing-model lookup every electrical update makes per arc: a
       bilinear LUT query inside the grid (bisection on both axes) *)
    Test.make ~name:"cell_delay_query"
      (Staged.stage (fun () ->
           ignore (Cells.Cell.delay cell ~slew:33.0 ~load:17.0)));
    (* the capture layer of Sec. 4.5's inner loop: install the trial cell
       with its fanin co-sizing, the window-clipped logged electrical
       update, the capture of the perturbed arc moments, and the rewind *)
    Test.make ~name:"window_clipped_trial"
      (Staged.stage (fun () ->
           Core.Window.capture_trial window ~lib sub strongest ignore));
    (* Sec. 4.3's max operator: quadratic-cutoff Clark vs exact vs discrete *)
    Test.make ~name:"clark_max_fast"
      (Staged.stage (fun () -> ignore (Numerics.Clark.max_fast a b)));
    Test.make ~name:"clark_max_exact"
      (Staged.stage (fun () -> ignore (Numerics.Clark.max_exact a b)));
    Test.make ~name:"discrete_pdf_max"
      (Staged.stage (fun () -> ignore (Numerics.Discrete_pdf.max2 pa pb)));
    (* 4x the support points: the merge-scan max must scale ~linearly; the
       ns ratio of this pair is the max2 regression line in BENCH_micro.json
       (the old cross-product kernel was quadratic and would show ~16x) *)
    Test.make ~name:"discrete_pdf_max_48pt"
      (Staged.stage (fun () -> ignore (Numerics.Discrete_pdf.max2 pa48 pb48)));
    Test.make ~name:"discrete_pdf_sum_resample"
      (Staged.stage (fun () ->
           ignore (Numerics.Discrete_pdf.sum ~samples:12 arrival arc)));
    (* Fig. 3's primitive: one WNSS trace (including its FULLSSTA pass) *)
    Test.make ~name:"wnss_trace_c432"
      (Staged.stage (fun () ->
           let full = Ssta.Fullssta.run c432 in
           ignore (Core.Wnss.trace ~model:Variation.Model.default c432 full)));
    (* the sizer's preflight gate: full lint (circuit+library+model) cost *)
    Test.make ~name:"lint_check_all_c432"
      (Staged.stage (fun () -> ignore (Lint.Engine.check_all ~lib c432)));
    Test.make ~name:"bench_io_lint_c432"
      (Staged.stage (fun () ->
           ignore (Netlist.Bench_io.lint (Netlist.Bench_io.to_string c432))));
  ]

let run_micro () =
  heading "Bechamel micro-benchmarks (engines behind each artifact)";
  let open Bechamel in
  let open Bechamel.Toolkit in
  let quota_s = if smoke then 0.05 else 0.6 in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota_s) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let grouped =
    Test.make_grouped ~name:"statsize" ~fmt:"%s/%s" (micro_tests ())
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  let estimates = ref [] in
  Hashtbl.iter
    (fun _metric tbl ->
      let rows =
        Hashtbl.fold (fun name result acc -> (name, result) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      List.iter
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              estimates := (name, est) :: !estimates;
              Fmt.pr "  %-32s %14.1f ns/run@." name est
          | _ -> Fmt.pr "  %-32s (no estimate)@." name)
        rows)
    merged;
  (* the max2 regression line: the merge-scan kernel must stay ~linear in
     support points, so 4x the points should cost ~4x, not the ~16x a
     quadratic cross-product shows. Mid-range threshold 8x. *)
  let find name = List.assoc_opt ("statsize/" ^ name) !estimates in
  let max2_ratio =
    match (find "discrete_pdf_max", find "discrete_pdf_max_48pt") with
    | Some base, Some big when base > 0.0 -> Some (big /. base)
    | _ -> None
  in
  (match max2_ratio with
  | Some r ->
      Fmt.pr "  max2 48pt/12pt cost ratio: %.1fx (linear kernel: ~4, \
              quadratic: ~16)@." r
  | None -> ());
  if json then
    write_json "BENCH_micro.json"
      (J.Obj
         [
           ("section", J.Str "micro");
           ("quota_s", J.Num quota_s);
           ("smoke", J.Bool smoke);
           ( "results",
             J.Arr
               (List.rev_map
                  (fun (name, est) ->
                    J.Obj [ ("name", J.Str name); ("ns_per_run", J.Num est) ])
                  !estimates) );
           ( "regressions",
             J.Obj
               [
                 ( "max2_48pt_over_12pt_ratio",
                   match max2_ratio with Some r -> J.Num r | None -> J.Num Float.nan
                 );
                 ( "max2_scaling_linear",
                   J.Bool
                     (match max2_ratio with Some r -> r < 8.0 | None -> false) );
               ] );
         ])

(* ---- incremental engines: scratch vs dirty-cone sizer ---------------------- *)

(* Same circuit, same config except [engine]; the Reference and Production
   runs must agree bit-for-bit on the final sizing (the incremental stops
   are exact), so the wall-clock gap is pure engine overhead. *)
let run_incremental () =
  heading "incremental — scratch vs dirty-cone sizer wall-clock";
  let cases =
    if smoke then [ ("alu2", `Iscas "alu2") ]
    else
      List.map (fun n -> (n, `Iscas n)) quick_names @ [ ("alu8", `Alu 8) ]
  in
  let build = function
    | `Iscas name -> Benchgen.Iscas_like.build_exn ~lib name
    | `Alu bits -> Benchgen.Alu.generate ~lib ~bits ()
  in
  let max_iterations =
    if smoke then 2 else Core.Sizer.default_config.Core.Sizer.max_iterations
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rows =
    List.map
      (fun (name, spec) ->
        let run engine =
          let c = build spec in
          let _ = Core.Initial_sizing.apply ~lib c in
          let config =
            { Core.Sizer.default_config with engine; max_iterations }
          in
          let r, t = time (fun () -> Core.Sizer.optimize ~config ~lib c) in
          let cells =
            List.map
              (fun g -> Cells.Cell.name (Netlist.Circuit.cell_exn c g))
              (Netlist.Circuit.gates c)
          in
          (r, t, cells)
        in
        let _, t_scratch, cells_scratch = run Core.Window.Reference in
        let r_incr, t_incr, cells_incr = run Core.Window.Production in
        let identical = cells_scratch = cells_incr in
        let speedup = if t_incr > 0.0 then t_scratch /. t_incr else Float.nan in
        Fmt.pr
          "  %-6s scratch %7.2fs  incremental %7.2fs  speedup %5.2fx  \
           final sizing identical=%b (%d resizes, %d iterations)@."
          name t_scratch t_incr speedup identical
          r_incr.Core.Sizer.total_resizes
          (List.length r_incr.Core.Sizer.iterations);
        (name, t_scratch, t_incr, speedup, identical, r_incr))
      cases
  in
  (* the headline: one aggregate over the quick Table 1 subset (alu8 rides
     along for the satellite's ALU datapoint but is not a Table 1 circuit) *)
  let in_quick (name, _, _, _, _, _) = List.mem name quick_names in
  let total_s =
    List.fold_left (fun a (_, t, _, _, _, _) -> a +. t) 0.0
      (List.filter in_quick rows)
  and total_i =
    List.fold_left (fun a (_, _, t, _, _, _) -> a +. t) 0.0
      (List.filter in_quick rows)
  in
  let aggregate = if total_i > 0.0 then total_s /. total_i else Float.nan in
  if not smoke then
    Fmt.pr "  quick-subset aggregate: scratch %.2fs incremental %.2fs speedup \
            %.2fx@."
      total_s total_i aggregate;
  if json then
    write_json "BENCH_incremental.json"
      (J.Obj
         [
           ("section", J.Str "incremental");
           ("smoke", J.Bool smoke);
           ("max_iterations", jint max_iterations);
           ( "quick_subset_aggregate",
             J.Obj
               [
                 ("scratch_s", J.Num total_s);
                 ("incremental_s", J.Num total_i);
                 ("speedup", J.Num aggregate);
               ] );
           ( "circuits",
             J.Arr
               (List.map
                  (fun (name, t_s, t_i, speedup, identical, r) ->
                    J.Obj
                      [
                        ("name", J.Str name);
                        ("scratch_s", J.Num t_s);
                        ("incremental_s", J.Num t_i);
                        ("speedup", J.Num speedup);
                        ("final_sizing_identical", J.Bool identical);
                        ("total_resizes", jint r.Core.Sizer.total_resizes);
                        ( "iterations",
                          jint (List.length r.Core.Sizer.iterations) );
                        ( "final_sigma_over_mean",
                          J.Num
                            (Core.Sizer.sigma_over_mean
                               r.Core.Sizer.final_moments) );
                      ])
                  rows) );
         ])

(* ---- statserve: daemon caches, pool throughput ---------------------------- *)

let run_serve () =
  heading "serve — resident daemon: caches, pool throughput";
  let max_iterations = if smoke then 2 else 4 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* in-process daemon: warm-vs-cold cache ratio and multi-job throughput *)
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "statserve-bench-%d.sock" (Unix.getpid ()))
  in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Daemon.run
          { (Serve.Daemon.default_config ~socket) with domains = 2 })
  in
  let rec wait_socket tries =
    if Sys.file_exists socket then ()
    else if tries = 0 then failwith "bench serve: daemon socket never appeared"
    else begin
      Unix.sleepf 0.05;
      wait_socket (tries - 1)
    end
  in
  wait_socket 100;
  (* cold = first info on a .bench payload (parse + cache fill); warm = the
     same request again (content-hash hit). The circuit is the suite's
     largest so parse cost dominates the socket round-trip, and warm is the
     minimum over the repeats — scheduling noise only ever inflates a
     sample, so min-of-warm vs the strictly-heavier cold keeps the gated
     ratio > 1 without depending on the machine. *)
  let bench_text =
    Netlist.Bench_io.to_string (Benchgen.Iscas_like.build_exn ~lib "c7552")
  in
  let info_line =
    J.to_string
      (J.Obj
         [
           ("serve", J.Num 1.0);
           ("id", J.Str "cache");
           ("op", J.Str "info");
           ("bench", J.Str bench_text);
         ])
  in
  let warm_reps = if smoke then 5 else 20 in
  let cold_s, warm_s =
    Serve.Client.with_connection ~socket (fun c ->
        let _, cold_s = time (fun () -> Serve.Client.request c info_line) in
        let warm =
          List.init warm_reps (fun _ ->
              snd (time (fun () -> Serve.Client.request c info_line)))
        in
        (cold_s, List.fold_left Float.min Float.infinity warm))
  in
  let warm_cold_ratio = if warm_s > 0.0 then cold_s /. warm_s else Float.nan in
  Fmt.pr "  cache: cold %.4fs  warm %.6fs  ratio %.1fx@." cold_s warm_s
    warm_cold_ratio;
  (* throughput: one batch of optimize jobs through the daemon pool *)
  let jobs = if smoke then 2 else 8 in
  let batch_line =
    Printf.sprintf {|{"serve":1,"id":"tp","op":"batch","jobs":[%s]}|}
      (String.concat ","
         (List.init jobs (fun i ->
              Printf.sprintf
                {|{"id":%d,"op":"optimize","circuit":"alu2","max_iterations":%d}|}
                i max_iterations)))
  in
  let _, batch_s =
    Serve.Client.with_connection ~socket (fun c ->
        time (fun () -> Serve.Client.request c batch_line))
  in
  let jobs_per_s = if batch_s > 0.0 then float_of_int jobs /. batch_s else 0.0 in
  Fmt.pr "  throughput: %d optimize jobs in %.2fs (%.2f jobs/s)@." jobs batch_s
    jobs_per_s;
  (match
     Serve.Client.session ~socket [ {|{"serve":1,"id":0,"op":"shutdown"}|} ]
   with
  | [ _ ] -> ()
  | _ -> failwith "bench serve: shutdown not acknowledged");
  Domain.join daemon;
  if json then
    write_json "BENCH_serve.json"
      (J.Obj
         [
           ("section", J.Str "serve");
           ("smoke", J.Bool smoke);
           ("max_iterations", jint max_iterations);
           ( "warm_cold",
             J.Obj
               [
                 ("cold_s", J.Num cold_s);
                 ("warm_s", J.Num warm_s);
                 ("ratio", J.Num warm_cold_ratio);
                 ("warm_faster", J.Bool (warm_cold_ratio > 1.0));
               ] );
           ( "throughput",
             J.Obj
               [
                 ("jobs", jint jobs);
                 ("wall_s", J.Num batch_s);
                 ("jobs_per_s", J.Num jobs_per_s);
               ] );
         ])

(* ---- statobs counters ---------------------------------------------------- *)

(* A FIXED workload regardless of --smoke/--quick: the emitted counter block
   is diffed bit-for-bit against bench/baselines/counters.json by the CI
   counter gate, so the work must be identical no matter which harness
   flags ride along. Wall-clock and span timings are emitted too but gated
   schema-only — they are machine-dependent; the operation counts are not. *)
let run_counters () =
  heading "statobs — deterministic operation counters (CI-gated)";
  Obs.Sink.reset ();
  Obs.Sink.enable ();
  let t0 = Unix.gettimeofday () in
  Obs.Span.with_ "bench.counters.analyze_c432" (fun () ->
      let c = Benchgen.Iscas_like.build_exn ~lib "c432" in
      let _ = Core.Initial_sizing.apply ~lib c in
      let full = Ssta.Fullssta.run c in
      ignore (Ssta.Fullssta.output_moments full);
      let stats = Ssta.Fassta.make_stats () in
      let moments = Ssta.Fassta.run ~stats c in
      ignore (Ssta.Fassta.output_moments c moments));
  Obs.Span.with_ "bench.counters.optimize_alu1" (fun () ->
      let c = Benchgen.Iscas_like.build_exn ~lib "alu1" in
      let _ = Core.Initial_sizing.apply ~lib c in
      let config = { Core.Sizer.default_config with max_iterations = 2 } in
      ignore (Core.Sizer.optimize ~config ~lib c));
  let wall_s = Unix.gettimeofday () -. t0 in
  Obs.Sink.disable ();
  let counters = Obs.Counters.dump () in
  List.iter (fun (name, v) -> Fmt.pr "  %-28s %12d@." name v) counters;
  Fmt.pr "  (%.2fs)@." wall_s;
  if json then
    write_json "BENCH_counters.json"
      (J.Obj
         [
           ("section", J.Str "counters");
           ("schema", J.Str "statobs/1");
           ( "workload",
             J.Arr [ J.Str "analyze c432 (fullssta+fassta)"; J.Str "optimize alu1 (2 iterations)" ] );
           ("counters", J.Obj (List.map (fun (k, v) -> (k, jint v)) counters));
           ( "timings",
             J.Obj
               [
                 ("wall_s", J.Num wall_s);
                 ( "spans",
                   J.Arr
                     (List.map
                        (fun (name, count, total_us, max_us) ->
                          J.Obj
                            [
                              ("name", J.Str name);
                              ("count", jint count);
                              ("total_us", J.Num total_us);
                              ("max_us", J.Num max_us);
                            ])
                        (Obs.Span.summaries ())) );
               ] );
         ]);
  Obs.Sink.reset ()

(* ---- statrace: parallel-safety analysis over the project's own sources --- *)

(* Not a paper artifact: tracks the cost and findings profile of the static
   race analyzer as the domain-parallel surface grows. The findings count on
   the shipped tree must be zero — the @races gate enforces that — so this
   section's JSON is a cost/coverage record, not a pass/fail signal. *)
let run_statrace () =
  heading "statrace — parallel-safety static analysis (lib/ + bin/)";
  (* cwd is bench/ inside _build under the @bench-smoke rule, the project
     root under `dune exec bench/main.exe` *)
  let roots =
    List.find_opt
      (List.for_all Sys.file_exists)
      [ [ "lib"; "bin" ]; [ "../lib"; "../bin" ] ]
    |> Option.value ~default:[]
  in
  if roots = [] then Fmt.pr "  sources not found; skipping@."
  else begin
    let t0 = Unix.gettimeofday () in
    let result = Statrace.Analyze.run_dirs roots in
    let wall_s = Unix.gettimeofday () -. t0 in
    let histogram =
      Statrace.Analyze.count_by_code result.Statrace.Analyze.findings
    in
    Fmt.pr "  %d files, %d entry points, %d findings, %d suppressed (%.3fs)@."
      result.Statrace.Analyze.files_scanned
      (List.length result.Statrace.Analyze.entry_points)
      (List.length result.Statrace.Analyze.findings)
      result.Statrace.Analyze.suppressed wall_s;
    List.iter
      (fun (name, file, line) -> Fmt.pr "  entry %s (%s:%d)@." name file line)
      result.Statrace.Analyze.entry_points;
    List.iter (fun (code, n) -> Fmt.pr "  %-8s %d@." code n) histogram;
    if json then
      write_json "BENCH_statrace.json"
        (J.Obj
           [
             ("section", J.Str "statrace");
             ("schema", J.Str "statrace/1");
             ("roots", J.Arr (List.map (fun r -> J.Str r) roots));
             ("files_scanned", jint result.Statrace.Analyze.files_scanned);
             ( "entry_points",
               J.Arr
                 (List.map
                    (fun (name, file, line) ->
                      J.Obj
                        [
                          ("name", J.Str name);
                          ("file", J.Str file);
                          ("line", jint line);
                        ])
                    result.Statrace.Analyze.entry_points) );
             ( "findings_by_code",
               J.Obj (List.map (fun (c, n) -> (c, jint n)) histogram) );
             ("findings", jint (List.length result.Statrace.Analyze.findings));
             ("suppressed", jint result.Statrace.Analyze.suppressed);
             ("wall_s", J.Num wall_s);
           ])
  end

(* ---- statflow: hot-path hygiene analysis over the project's own sources - *)

(* Companion to the statrace section: cost and findings profile of the
   allocation/exception/determinism analyzer. Runs with the same flow.allow
   the @flow gate uses, so `findings` here is the gated view (zero on a
   shipped tree modulo Info-level notes) and the per-entry allocation
   summaries are the static complement of the Gc.minor_words budget tests. *)
let run_statflow () =
  heading "statflow — allocation/exception/determinism analysis (lib/ + bin/)";
  let roots =
    List.find_opt
      (List.for_all Sys.file_exists)
      [ [ "lib"; "bin" ]; [ "../lib"; "../bin" ] ]
    |> Option.value ~default:[]
  in
  if roots = [] then Fmt.pr "  sources not found; skipping@."
  else begin
    let allow =
      match List.find_opt Sys.file_exists [ "flow.allow"; "../flow.allow" ] with
      | None -> []
      | Some p -> (
          match Statflow.Analyze.parse_allow_file p with
          | Ok entries -> entries
          | Error msg ->
              Fmt.pr "  allow-file ignored: %s@." msg;
              [])
    in
    let config = { Statflow.Analyze.default_config with allow } in
    let t0 = Unix.gettimeofday () in
    let result = Statflow.Analyze.run_dirs ~config roots in
    let wall_s = Unix.gettimeofday () -. t0 in
    let histogram =
      Statflow.Analyze.count_by_code result.Statflow.Analyze.findings
    in
    Fmt.pr
      "  %d files, %d hot + %d det entries, %d findings, %d suppressed \
       (%.3fs)@."
      result.Statflow.Analyze.files_scanned
      (List.length result.Statflow.Analyze.hot_entries)
      (List.length result.Statflow.Analyze.det_entries)
      (List.length result.Statflow.Analyze.findings)
      result.Statflow.Analyze.suppressed wall_s;
    List.iter
      (fun (name, c) ->
        Fmt.pr "  %s: %d bindings, %d allocs (%d in loops)@." name
          c.Statflow.Analyze.bindings
          (c.Statflow.Analyze.constructs + c.Statflow.Analyze.closures
         + c.Statflow.Analyze.builders)
          c.Statflow.Analyze.in_loop)
      result.Statflow.Analyze.summaries;
    List.iter (fun (code, n) -> Fmt.pr "  %-8s %d@." code n) histogram;
    if json then
      write_json "BENCH_statflow.json"
        (J.Obj
           [
             ("section", J.Str "statflow");
             ("schema", J.Str "statflow/1");
             ("roots", J.Arr (List.map (fun r -> J.Str r) roots));
             ("files_scanned", jint result.Statflow.Analyze.files_scanned);
             ( "hot_entries",
               J.Arr
                 (List.map
                    (fun (name, file, line) ->
                      J.Obj
                        [
                          ("name", J.Str name);
                          ("file", J.Str file);
                          ("line", jint line);
                        ])
                    result.Statflow.Analyze.hot_entries) );
             ( "det_entries",
               J.Arr
                 (List.map
                    (fun (name, file, line) ->
                      J.Obj
                        [
                          ("name", J.Str name);
                          ("file", J.Str file);
                          ("line", jint line);
                        ])
                    result.Statflow.Analyze.det_entries) );
             ( "alloc_summaries",
               J.Arr
                 (List.map
                    (fun (name, c) ->
                      J.Obj
                        [
                          ("entry", J.Str name);
                          ("bindings", jint c.Statflow.Analyze.bindings);
                          ("constructs", jint c.Statflow.Analyze.constructs);
                          ("closures", jint c.Statflow.Analyze.closures);
                          ("builders", jint c.Statflow.Analyze.builders);
                          ("in_loop", jint c.Statflow.Analyze.in_loop);
                        ])
                    result.Statflow.Analyze.summaries) );
             ( "findings_by_code",
               J.Obj (List.map (fun (c, n) -> (c, jint n)) histogram) );
             ("findings", jint (List.length result.Statflow.Analyze.findings));
             ("suppressed", jint result.Statflow.Analyze.suppressed);
             ("wall_s", J.Num wall_s);
           ])
  end

let () =
  Fmt.pr "statsize paper-reproduction bench%s@."
    (if quick then " (--quick)" else "");
  if wants "table1" then run_table1 ();
  if wants "fig1" then run_fig1 ();
  if wants "fig3" then run_fig3 ();
  if wants "fig4" then run_fig4 ();
  if wants "approx" then run_approx ();
  if wants "ablation" then run_ablation ();
  if wants "micro" then run_micro ();
  if wants "incremental" then run_incremental ();
  if wants "serve" then run_serve ();
  if wants "counters" then run_counters ();
  if wants "statrace" then run_statrace ();
  if wants "statflow" then run_statflow ();
  Fmt.pr "@.done.@."
