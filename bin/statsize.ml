(* statsize — command-line front end.

   Subcommands:
     list                    show the built-in benchmark suite
     info     CIRCUIT        structural metrics
     analyze  CIRCUIT        deterministic + statistical timing summary
     optimize CIRCUIT        baseline + StatisticalGreedy at one alpha
     paths    CIRCUIT        K worst paths with per-path miss probability
     slack    CIRCUIT        statistical required times / slack summary
     pca      CIRCUIT        correlation-aware SSTA vs the independent engines
     check    CIRCUIT        certify SSTA runs against abstract-interpretation
                             bounds (ABS rules)
     races    [ROOT]...      parallel-safety static analysis of the project's
                             own sources (PAR rules), rooted at Domain.spawn
     dot      CIRCUIT FILE   Graphviz export with the WNSS cone highlighted
     table1 / fig1 / fig3 / fig4 / approx
                             regenerate the paper's experiments
     serve                   resident sizing daemon on a Unix socket
                             (serve/1 newline-delimited JSON; --client and
                             --table1 talk to a running daemon)
     export   CIRCUIT FILE   write a suite circuit as .bench
     liberty  FILE           dump the generated cell library *)

open Cmdliner

let lib = Lazy.force Cells.Library.default

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let circuit_arg =
  let doc = "Benchmark circuit name (see $(b,statsize list)) or a .bench file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

(* A .bench file that does not map is reported as [file:line: CODE:
   message], and the command exits 1, the exit code for errors. *)
let build_circuit name =
  if Sys.file_exists name then (
    match Netlist.Bench_io.load ~lib ~path:name () with
    | c -> c
    | exception Netlist.Bench_io.Parse_error { line; code; message } ->
        Fmt.epr "%s:%d: %s: %s@." name line code message;
        exit 1)
  else
    match Benchgen.Iscas_like.find name with
    | Some entry -> entry.Benchgen.Iscas_like.build ~lib
    | None ->
        Fmt.failwith "unknown circuit %s (try `statsize list` or a .bench path)"
          name

(* ---- subcommands ------------------------------------------------------- *)

let list_cmd =
  let run () =
    Fmt.pr "built-in benchmark suite:@.";
    List.iter
      (fun name ->
        let c = build_circuit name in
        Fmt.pr "  %a@." Netlist.Metrics.pp (Netlist.Metrics.compute c))
      Benchgen.Iscas_like.names
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in benchmark suite")
    Term.(const run $ const ())

let info_cmd =
  let run name =
    let c = build_circuit name in
    Fmt.pr "%a@." Netlist.Metrics.pp (Netlist.Metrics.compute c);
    let m = Netlist.Metrics.compute c in
    List.iter (fun (fn, n) -> Fmt.pr "  %-8s %d@." fn n) m.Netlist.Metrics.fn_histogram
  in
  Cmd.v (Cmd.info "info" ~doc:"Show structural metrics for a circuit")
    Term.(const run $ circuit_arg)

(* [base]'s values that satisfy [valid]; any other value is a usage error
   (exit 124), raised while parsing the command line, before any engine
   runs. *)
let checked_conv base ~expected valid =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when valid v -> Ok v
    | Ok _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let trials_arg =
  let positive =
    checked_conv Arg.int ~expected:"a positive integer" (fun n -> n >= 1)
  in
  Arg.(value & opt positive 2000 & info [ "trials" ] ~doc:"Monte-Carlo trials.")

let analyze_cmd =
  let run name trials =
    let c = build_circuit name in
    let _ = Core.Initial_sizing.apply ~lib c in
    let det = Sta.Analysis.analyze c in
    Fmt.pr "deterministic: max arrival %.2f ps (critical path %d nodes)@."
      (Sta.Analysis.max_arrival det)
      (List.length (Sta.Analysis.critical_path det));
    let full = Ssta.Fullssta.run c in
    let m = Ssta.Fullssta.output_moments full in
    Fmt.pr "FULLSSTA: mu=%.2f sigma=%.2f sigma/mean=%.4f@." m.Numerics.Clark.mean
      (Numerics.Clark.sigma m)
      (Ssta.Fullssta.sigma_over_mean full);
    let stats = Ssta.Fassta.make_stats () in
    let fast = Ssta.Fassta.run ~stats c in
    let fm = Ssta.Fassta.output_moments c fast in
    Fmt.pr "FASSTA:   mu=%.2f sigma=%.2f (cutoff hit rate %.0f%%)@."
      fm.Numerics.Clark.mean (Numerics.Clark.sigma fm)
      (100.0 *. Ssta.Fassta.cutoff_fraction stats);
    let mc =
      Ssta.Monte_carlo.run
        ~config:{ Ssta.Monte_carlo.default_config with trials }
        c
    in
    let s = Ssta.Monte_carlo.circuit_stats mc in
    Fmt.pr "MonteCarlo (%d trials): mu=%.2f sigma=%.2f@." trials
      (Numerics.Stats.mean s) (Numerics.Stats.std s)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Timing analysis with all three engines")
    Term.(const run $ circuit_arg $ trials_arg)

let alpha_arg =
  Arg.(value & opt float 3.0 & info [ "alpha" ] ~doc:"Variance weight α.")

let no_recover_arg =
  Arg.(value & flag & info [ "no-recover" ] ~doc:"Skip the area-recovery pass.")

let optimize_cmd =
  let run verbose name alpha no_recover =
    setup_logs verbose;
    let baseline = Experiments.Pipeline.prepare ~lib (fun () -> build_circuit name) in
    Fmt.pr "baseline (mean-optimized): mu=%.2f sigma=%.2f area=%.1f@."
      baseline.Experiments.Pipeline.moments.Numerics.Clark.mean
      (Numerics.Clark.sigma baseline.Experiments.Pipeline.moments)
      baseline.Experiments.Pipeline.area;
    let r =
      Experiments.Pipeline.run_alpha ~recover:(not no_recover) ~lib baseline
        ~alpha
    in
    Fmt.pr
      "alpha=%g: dmu=%+.1f%% dsigma=%+.1f%% sigma/mean %.4f -> %.4f darea=%+.1f%% \
       (%d iterations, %d resizes, %.1f s)@."
      alpha r.Experiments.Pipeline.mean_change_pct
      r.Experiments.Pipeline.sigma_change_pct
      (Experiments.Pipeline.sigma_over_mean baseline.Experiments.Pipeline.moments)
      r.Experiments.Pipeline.final_sigma_over_mean
      r.Experiments.Pipeline.area_change_pct r.Experiments.Pipeline.iterations
      r.Experiments.Pipeline.resizes r.Experiments.Pipeline.runtime_s
  in
  Cmd.v (Cmd.info "optimize" ~doc:"Run StatisticalGreedy on a circuit")
    Term.(const run $ verbose_arg $ circuit_arg $ alpha_arg $ no_recover_arg)

let names_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "circuits" ] ~doc:"Comma-separated subset of suite circuits.")

let csv_arg =
  Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Write CSV to FILE.")

let table1_cmd =
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ]
          ~doc:
            "Round-robin the circuits across this many domains (clamped to \
             the host's recommended domain count).")
  in
  let run names csv domains =
    let names = Option.value ~default:Benchgen.Iscas_like.names names in
    let rows = Experiments.Table1.run ~names ~domains ~lib () in
    Fmt.pr "%a" Experiments.Table1.pp rows;
    Option.iter
      (fun path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Experiments.Table1.to_csv rows));
        Fmt.pr "wrote %s@." path)
      csv
  in
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce Table 1")
    Term.(const run $ names_arg $ csv_arg $ domains_arg)

let fig1_cmd =
  let run () = Fmt.pr "%a" Experiments.Fig1.pp (Experiments.Fig1.run ~lib ()) in
  Cmd.v (Cmd.info "fig1" ~doc:"Reproduce Fig. 1") Term.(const run $ const ())

let fig3_cmd =
  let run () = Fmt.pr "%a" Experiments.Fig3.pp (Experiments.Fig3.trace ()) in
  Cmd.v (Cmd.info "fig3" ~doc:"Reproduce Fig. 3") Term.(const run $ const ())

let fig4_cmd =
  let run () = Fmt.pr "%a" Experiments.Fig4.pp (Experiments.Fig4.run ~lib ()) in
  Cmd.v (Cmd.info "fig4" ~doc:"Reproduce Fig. 4") Term.(const run $ const ())

let ablation_cmd =
  let run () = Fmt.pr "%a" Experiments.Ablation.pp (Experiments.Ablation.run ~lib ()) in
  Cmd.v (Cmd.info "ablation" ~doc:"Ablation over sizer design choices")
    Term.(const run $ const ())

let approx_cmd =
  let run () =
    Fmt.pr "%a" Experiments.Approx.pp_erf (Experiments.Approx.erf_study ());
    Fmt.pr "%a" Experiments.Approx.pp_max (Experiments.Approx.max_study ());
    Fmt.pr "%a" Experiments.Approx.pp_cutoffs
      (Experiments.Approx.cutoff_study ~lib ())
  in
  Cmd.v
    (Cmd.info "approx" ~doc:"Reproduce the §4.3 approximation study")
    Term.(const run $ const ())

let path_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Output path.")

let export_cmd =
  let run name path =
    let c = build_circuit name in
    Netlist.Bench_io.save c ~path;
    Fmt.pr "wrote %s@." path
  in
  Cmd.v (Cmd.info "export" ~doc:"Write a circuit as .bench")
    Term.(const run $ circuit_arg $ path_arg)

let verilog_cmd =
  let run name path =
    let c = build_circuit name in
    Netlist.Verilog.save ~module_name:name c ~path;
    Fmt.pr "wrote %s@." path
  in
  Cmd.v (Cmd.info "verilog" ~doc:"Write a circuit as structural Verilog")
    Term.(const run $ circuit_arg $ path_arg)

let sdf_cmd =
  let run name path =
    let c = build_circuit name in
    let _ = Core.Initial_sizing.apply ~lib c in
    let e = Sta.Electrical.compute c in
    Sta.Sdf.save ~design:name c e ~path;
    Fmt.pr "wrote %s@." path
  in
  Cmd.v
    (Cmd.info "sdf" ~doc:"Write SDF delays with statistical +-3 sigma corners")
    Term.(const run $ circuit_arg $ path_arg)

let power_cmd =
  let run name trials =
    let c = build_circuit name in
    let _ = Core.Initial_sizing.apply ~lib c in
    let r =
      Ssta.Power_analysis.run
        ~config:{ Ssta.Power_analysis.default_config with trials }
        c
    in
    Fmt.pr "%a@." Ssta.Power_analysis.pp r
  in
  Cmd.v (Cmd.info "power" ~doc:"Dynamic power and die-to-die leakage spread")
    Term.(const run $ circuit_arg $ trials_arg)

let liberty_cmd =
  let run path =
    Cells.Liberty.save lib ~path;
    Fmt.pr "wrote %s (%d cells)@." path (Cells.Library.cell_count lib)
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v (Cmd.info "liberty" ~doc:"Dump the generated cell library")
    Term.(const run $ path)

let paths_cmd =
  let k_arg = Arg.(value & opt int 10 & info [ "k" ] ~doc:"How many paths.") in
  let run name k =
    let c = build_circuit name in
    let _ = Core.Initial_sizing.apply ~lib c in
    let t = Sta.Analysis.analyze c in
    let e = Sta.Analysis.electrical t in
    let model = Variation.Model.default in
    let period = Sta.Analysis.max_arrival t in
    Fmt.pr "%d worst paths (period anchor %.1f ps):@." k period;
    List.iter
      (fun p ->
        let m = Sta.Paths.path_moments ~model c e p in
        Fmt.pr "  %.1f ps, stat N(%.1f, %.1f^2), P(miss anchor)=%.2f | %d nodes@."
          p.Sta.Paths.arrival m.Numerics.Clark.mean (Numerics.Clark.sigma m)
          (Sta.Paths.violation_probability ~model c e p ~period)
          (List.length p.Sta.Paths.nodes))
      (Sta.Paths.k_worst t c ~k)
  in
  Cmd.v (Cmd.info "paths" ~doc:"Enumerate the K worst paths")
    Term.(const run $ circuit_arg $ k_arg)

let slack_cmd =
  let period_arg =
    Arg.(value & opt (some float) None
         & info [ "period" ] ~doc:"Clock period (ps); default mean + 1 sigma.")
  in
  let sdc_arg =
    Arg.(value & opt (some string) None
         & info [ "sdc" ] ~doc:"SDC constraint file (overrides --period).")
  in
  let run name period sdc_path alpha =
    let c = build_circuit name in
    let _ = Core.Initial_sizing.apply ~lib c in
    let model = Variation.Model.default in
    let full = Ssta.Fullssta.run c in
    let m = Ssta.Fullssta.output_moments full in
    let sdc = Option.map (fun path -> Sta.Sdc.load ~path) sdc_path in
    let period =
      match (sdc, period) with
      | Some sdc, _ -> Sta.Sdc.period_exn sdc
      | None, Some p -> p
      | None, None -> m.Numerics.Clark.mean +. Numerics.Clark.sigma m
    in
    let sl =
      match sdc with
      | Some sdc -> Ssta.Stat_slack.of_sdc ~model ~sdc full c
      | None -> Ssta.Stat_slack.of_fullssta ~model ~period full c
    in
    Fmt.pr "statistical slack at T=%.1f ps (arrival N(%.1f, %.1f^2)):@." period
      m.Numerics.Clark.mean (Numerics.Clark.sigma m);
    List.iter
      (fun o ->
        match
          (Ssta.Stat_slack.slack sl o, Ssta.Stat_slack.meet_probability sl o)
        with
        | Some s, Some p ->
            Fmt.pr "  %-10s slack N(%+.1f, %.1f^2)  P(meet)=%.3f@."
              (Netlist.Circuit.node_name c o)
              s.Numerics.Clark.mean (Numerics.Clark.sigma s) p
        | _ -> ())
      (Netlist.Circuit.outputs c);
    match Ssta.Stat_slack.worst_node sl ~alpha c with
    | Some (id, v) ->
        Fmt.pr "worst pessimistic slack (mean - %g sigma): %s at %+.1f ps@." alpha
          (Netlist.Circuit.node_name c id)
          v
    | None -> ()
  in
  Cmd.v (Cmd.info "slack" ~doc:"Statistical required times and slack")
    Term.(const run $ circuit_arg $ period_arg $ sdc_arg $ alpha_arg)

let pca_cmd =
  let share_arg =
    let share =
      checked_conv Arg.float ~expected:"a number in [0, 1]" (fun x ->
          x >= 0.0 && x <= 1.0)
    in
    Arg.(value & opt share 0.5
         & info [ "global-share" ] ~doc:"Die-to-die variance share, in [0, 1].")
  in
  let run name share trials =
    let c = build_circuit name in
    let _ = Core.Initial_sizing.apply ~lib c in
    let structure = Variation.Correlated.create ~global_share:share () in
    let full = Ssta.Fullssta.run c in
    let fm = Ssta.Fullssta.output_moments full in
    let pca = Ssta.Pca.run ~structure c in
    let pa = Ssta.Pca.output_arrival pca c in
    let mc =
      Ssta.Monte_carlo.run
        ~config:{ Ssta.Monte_carlo.default_config with trials; structure }
        c
    in
    let ms = Ssta.Monte_carlo.circuit_stats mc in
    Fmt.pr "global variance share %.2f:@." share;
    Fmt.pr "  independent SSTA : mu=%.1f sigma=%.2f@." fm.Numerics.Clark.mean
      (Numerics.Clark.sigma fm);
    Fmt.pr "  PCA SSTA         : mu=%.1f sigma=%.2f@." pa.Ssta.Pca.mean
      (Ssta.Pca.total_sigma pa);
    Fmt.pr "  correlated MC    : mu=%.1f sigma=%.2f@." (Numerics.Stats.mean ms)
      (Numerics.Stats.std ms)
  in
  Cmd.v
    (Cmd.info "pca" ~doc:"Correlation-aware SSTA vs independent engines")
    Term.(const run $ circuit_arg $ share_arg $ trials_arg)

let rank_cmd =
  let top_arg = Arg.(value & opt int 15 & info [ "top" ] ~doc:"How many gates.") in
  let run name top =
    let c = build_circuit name in
    let _ = Core.Initial_sizing.apply ~lib c in
    let crit = Core.Criticality.compute c in
    Fmt.pr "%a" (Core.Criticality.pp ~top c) crit
  in
  Cmd.v
    (Cmd.info "rank" ~doc:"Rank gates by statistical criticality")
    Term.(const run $ circuit_arg $ top_arg)

let dot_cmd =
  let run name path =
    let c = build_circuit name in
    let _ = Core.Initial_sizing.apply ~lib c in
    let full = Ssta.Fullssta.run c in
    let cone = Core.Wnss.critical_cone ~model:Variation.Model.default c full in
    let in_cone = Hashtbl.create 97 in
    List.iter (fun id -> Hashtbl.replace in_cone id ()) cone;
    let style id =
      { Netlist.Dot.label = None; highlight = Hashtbl.mem in_cone id }
    in
    Netlist.Dot.save ~graph_name:name ~style c ~path;
    Fmt.pr "wrote %s (%d cone nodes highlighted)@." path (List.length cone)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Graphviz export with the WNSS cone highlighted")
    Term.(const run $ circuit_arg $ path_arg)

(* ---- report subcommands: lint, check, races, flow ---------------------- *)

(* Usage problems exit 2 with a plain message so CI can tell "you called it
   wrong" (2) apart from "the design is bad" (1/3). *)
let usage_error cmd fmt =
  Fmt.kstr (fun m -> Fmt.epr "statsize %s: %s@." cmd m; exit 2) fmt

type report = {
  format : [ `Text | `Json ];
  strict : bool;
  registry : Lint.Registry.t;
}

(* The options every report subcommand takes: --format, --strict, and the
   --disable/--severity registry spec. *)
let report_term ~cmd ~severity_example =
  let format_arg =
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Exit 3 when warnings are present (errors \
                                   always exit 1).")
  in
  let disable_arg =
    Arg.(value & opt (list string) []
         & info [ "disable" ] ~doc:"Comma-separated rule codes to disable.")
  in
  let severity_arg =
    Arg.(value & opt (list string) []
         & info [ "severity" ]
             ~doc:
               ("Comma-separated severity overrides, e.g. " ^ severity_example
              ^ "."))
  in
  let make format strict disable overrides =
    match Lint.Registry.of_spec ~disable ~overrides () with
    | Ok registry -> { format; strict; registry }
    | Error msg -> usage_error cmd "--disable/--severity: %s" msg
  in
  Term.(const make $ format_arg $ strict_arg $ disable_arg $ severity_arg)

(* Print the named targets' findings — the JSON document, or [text ()] —
   and exit with the lint exit code over all of them. *)
let report_and_exit report targets ~text =
  (match report.format with
  | `Json -> print_endline (Lint.Report.to_json targets)
  | `Text -> text ());
  exit
    (Lint.Report.exit_code ~strict:report.strict (List.concat_map snd targets))

let roots_arg =
  let doc = "Source roots to scan for .ml files (recursive; _build and \
             dot-directories skipped). Default: $(b,lib) $(b,bin)." in
  Arg.(value & pos_all dir [] & info [] ~docv:"ROOT" ~doc)

let source_roots ~cmd roots =
  let roots = if roots = [] then [ "lib"; "bin" ] else roots in
  List.iter
    (fun r -> if not (Sys.file_exists r) then usage_error cmd "no such root %s" r)
    roots;
  roots

let allow_entries ~cmd parse = function
  | None -> []
  | Some path -> (
      match parse path with
      | Ok a -> a
      | Error msg -> usage_error cmd "--allow-file: %s" msg)

let lint_cmd =
  let targets_arg =
    let doc = "Circuits to lint: suite names or .bench files. With no \
               targets, only the library and variation model are checked." in
    Arg.(value & pos_all string [] & info [] ~docv:"CIRCUIT" ~doc)
  in
  let all_arg =
    Arg.(value & flag
         & info [ "all" ] ~doc:"Also lint every built-in suite circuit.")
  in
  let liberty_arg =
    Arg.(value & opt (some file) None
         & info [ "liberty" ] ~docv:"FILE"
             ~doc:"Lint this liberty-like library dump instead of the \
                   generated default.")
  in
  let die fmt = usage_error "lint" fmt in
  let run report targets all liberty =
    let model = Variation.Model.default in
    let lib =
      match liberty with
      | None -> lib
      | Some path -> Cells.Liberty.load ~path
    in
    let targets =
      targets @ if all then Benchgen.Iscas_like.names else []
    in
    let lint_target name =
      if Sys.file_exists name then begin
        (* .bench file: permissive parse diagnostics first; only run the
           circuit rules when the file maps cleanly. *)
        let file_diags = Netlist.Bench_io.lint_file ~path:name in
        if Diag.has_errors file_diags then file_diags
        else
          file_diags
          @ Lint.Engine.check_circuit ~lib
              (Netlist.Bench_io.load ~validate:false ~lib ~path:name ())
      end
      else
        match Benchgen.Iscas_like.find name with
        | Some entry ->
            Lint.Engine.check_circuit ~lib (entry.Benchgen.Iscas_like.build ~lib)
        | None ->
            die "unknown circuit %s (try `statsize list` or a .bench path)"
              name
    in
    let results =
      ( "library+model",
        Lint.Engine.check_library lib @ Lint.Engine.check_model model )
      :: List.map (fun t -> (t, lint_target t)) targets
    in
    let results =
      List.map (fun (t, ds) -> (t, Lint.Registry.apply report.registry ds)) results
    in
    report_and_exit report results ~text:(fun () ->
        List.iter
          (fun (t, ds) -> Fmt.pr "%s:@.%a" t Lint.Report.pp ds)
          results)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Typed diagnostics for circuits, the library, and SSTA invariants"
       ~man:
         [
           `S Manpage.s_description;
           `P "Runs the circuit, library, and statistical rule packs and \
               prints coded findings (CIRC*/LIB*/STAT*/BENCH*). Exit codes: \
               0 clean or warnings, 1 errors, 2 usage errors, 3 warnings \
               with $(b,--strict).";
         ])
    Term.(const run
          $ report_term ~cmd:"lint" ~severity_example:"CIRC007=error,LIB002=info"
          $ targets_arg $ all_arg $ liberty_arg)

let check_cmd =
  let targets_arg =
    let doc = "Circuits to certify: suite names or .bench files." in
    Arg.(value & pos_all string [] & info [] ~docv:"CIRCUIT" ~doc)
  in
  let all_arg =
    Arg.(value & flag
         & info [ "all" ] ~doc:"Also certify every built-in suite circuit.")
  in
  let scope_arg =
    Arg.(value
         & opt (enum [ ("current", `Current); ("all-sizings", `All) ]) `Current
         & info [ "scope" ]
             ~doc:"Certify the $(b,current) sizing (tight) or hull over \
                   $(b,all-sizings) of the drive ladder (sound under any \
                   optimizer trajectory).")
  in
  let budget_tol_arg =
    Arg.(value & opt float 0.05
         & info [ "budget-tol" ]
             ~doc:"ABS005 threshold: accumulated FASSTA budget as a fraction \
                   of the certified RV_O mean bound.")
  in
  let die fmt = usage_error "check" fmt in
  let run report targets all scope budget_tol =
    let targets = targets @ if all then Benchgen.Iscas_like.names else [] in
    if targets = [] then
      die "no circuits to certify (pass suite names, .bench paths, or --all)";
    let scope =
      match scope with
      | `Current -> Absint.Statcheck.Current_sizing
      | `All -> Absint.Statcheck.All_sizings
    in
    let model = Variation.Model.default in
    let check_target name =
      let c = try build_circuit name with Failure msg -> die "%s" msg in
      ignore (Core.Initial_sizing.apply ~lib c);
      let clark_config =
        { Absint.Statcheck.default_config with Absint.Statcheck.scope; model }
      in
      let sc = Absint.Statcheck.run ~config:clark_config ~lib c in
      let scd =
        Absint.Statcheck.run
          ~config:
            { clark_config with semantics = Absint.Domain.Distribution_free }
          ~lib c
      in
      let full = Ssta.Fullssta.run c in
      let fast = Ssta.Fassta.run c in
      let exact =
        let electrical = Sta.Electrical.compute c in
        let scratch =
          Array.make (Netlist.Circuit.size c)
            (Numerics.Clark.moments ~mean:0.0 ~var:0.0)
        in
        Ssta.Fassta.propagate_into ~exact:true ~model ~circuit:c ~electrical
          scratch;
        scratch
      in
      let diags =
        Lint.Absint_rules.check_fullssta scd (Ssta.Fullssta.moments full)
        @ Lint.Absint_rules.check_fassta ~engine:`Fast sc (fun id -> fast.(id))
        @ Lint.Absint_rules.check_fassta ~engine:`Exact sc (fun id ->
              exact.(id))
        @ Lint.Absint_rules.check_budget sc
            ~fast:(fun id -> fast.(id))
            ~exact:(fun id -> exact.(id))
        @ Lint.Absint_rules.check_budget_tolerance ~tol:budget_tol sc
      in
      (sc, scd, Lint.Registry.apply report.registry diags)
    in
    let results = List.map (fun t -> (t, check_target t)) targets in
    report_and_exit report
      (List.map (fun (t, (_, _, ds)) -> (t, ds)) results)
      ~text:(fun () ->
        List.iter
          (fun (t, (sc, scd, ds)) ->
            Fmt.pr "%s:@.  clark:     %a@.  dist-free: %a@." t
              Absint.Statcheck.pp_summary sc Absint.Statcheck.pp_summary scd;
            Fmt.pr "%a" Lint.Report.pp ds)
          results)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Certify SSTA runs against abstract-interpretation bounds (ABS rules)"
       ~man:
         [
           `S Manpage.s_description;
           `P "Runs the statcheck certifier (Clark-normal and \
               distribution-free abstract interpretation) over each circuit, \
               then cross-checks concrete FULLSSTA and FASSTA results \
               against the certified enclosures (ABS001-ABS005). Exit codes \
               match $(b,statsize lint): 0 clean or warnings, 1 \
               errors, 2 usage errors, 3 warnings with $(b,--strict).";
         ])
    Term.(const run
          $ report_term ~cmd:"check" ~severity_example:"ABS005=info"
          $ targets_arg $ all_arg $ scope_arg $ budget_tol_arg)

let races_cmd =
  let entry_arg =
    Arg.(value & opt_all string []
         & info [ "entry" ] ~docv:"NAME"
             ~doc:"Restrict the analysis to Domain.spawn sites inside this \
                   binding ($(b,Module.binding), bare $(b,binding), or bare \
                   $(b,Module)). Repeatable; default: every spawn site.")
  in
  let allow_file_arg =
    Arg.(value & opt (some file) None
         & info [ "allow-file" ] ~docv:"FILE"
             ~doc:"Allowlist file: lines of CODE PATH[:LINE] reason. Entries \
                   that suppress nothing are flagged PAR007.")
  in
  let run report roots entries allow_file =
    let roots = source_roots ~cmd:"races" roots in
    let allow =
      allow_entries ~cmd:"races" Statrace.Analyze.parse_allow_file allow_file
    in
    let result =
      Statrace.Analyze.run_dirs ~config:{ Statrace.Analyze.entries; allow }
        roots
    in
    let findings =
      Lint.Registry.apply report.registry result.Statrace.Analyze.findings
    in
    report_and_exit report [ ("races", findings) ] ~text:(fun () ->
        Fmt.pr "scanned %d files under %s; %d parallel entry point%s:@."
          result.Statrace.Analyze.files_scanned
          (String.concat ", " roots)
          (List.length result.Statrace.Analyze.entry_points)
          (if List.length result.Statrace.Analyze.entry_points = 1 then ""
           else "s");
        List.iter
          (fun (name, file, line) ->
            Fmt.pr "  %s (%s:%d)@." name file line)
          result.Statrace.Analyze.entry_points;
        if result.Statrace.Analyze.suppressed > 0 then
          Fmt.pr "%d finding%s suppressed by pragmas/allowlist@."
            result.Statrace.Analyze.suppressed
            (if result.Statrace.Analyze.suppressed = 1 then "" else "s");
        Fmt.pr "races:@.%a" Lint.Report.pp findings)
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:"Parallel-safety static analysis of the project's own sources"
       ~man:
         [
           `S Manpage.s_description;
           `P "Parses every .ml file under the given roots with the \
               compiler's own front end, builds a module-level call graph, \
               and classifies every mutable location reachable from a \
               Domain.spawn region (PAR001-PAR007). Atomic operations, \
               Mutex.protect regions (including callees reached only through \
               guarded call sites), Domain.DLS state, and thunk-local \
               allocations are safe by construction. Suppress a reviewed \
               finding with a (* statrace: safe — reason *) comment on the \
               line or the line above, or with $(b,--allow-file); stale \
               suppressions are themselves flagged (PAR007). Exit codes \
               match $(b,statsize lint): 0 clean or warnings, 1 errors, 2 \
               usage errors, 3 warnings with $(b,--strict).";
         ])
    Term.(const run
          $ report_term ~cmd:"races" ~severity_example:"PAR005=error,PAR004=info"
          $ roots_arg $ entry_arg $ allow_file_arg)

let flow_cmd =
  let entry_arg =
    Arg.(value & opt_all string []
         & info [ "entry" ] ~docv:"NAME"
             ~doc:"Replace $(b,both) built-in entry sets (hot kernels and \
                   deterministic-result roots) with this binding \
                   ($(b,Module.binding), bare $(b,binding), or bare \
                   $(b,Module)). Repeatable.")
  in
  let allow_file_arg =
    Arg.(value & opt (some file) None
         & info [ "allow-file" ] ~docv:"FILE"
             ~doc:"Allowlist file: lines of CODE PATH[:LINE] reason. Entries \
                   that suppress nothing are flagged FLOW007.")
  in
  let run report roots entries allow_file =
    let roots = source_roots ~cmd:"flow" roots in
    let allow =
      allow_entries ~cmd:"flow" Statflow.Analyze.parse_allow_file allow_file
    in
    let result =
      Statflow.Analyze.run_dirs ~config:{ Statflow.Analyze.entries; allow }
        roots
    in
    let findings =
      Lint.Registry.apply report.registry result.Statflow.Analyze.findings
    in
    report_and_exit report [ ("flow", findings) ] ~text:(fun () ->
        Fmt.pr
          "scanned %d files under %s; %d hot entr%s, %d result entr%s:@."
          result.Statflow.Analyze.files_scanned
          (String.concat ", " roots)
          (List.length result.Statflow.Analyze.hot_entries)
          (if List.length result.Statflow.Analyze.hot_entries = 1 then "y"
           else "ies")
          (List.length result.Statflow.Analyze.det_entries)
          (if List.length result.Statflow.Analyze.det_entries = 1 then "y"
           else "ies");
        List.iter
          (fun (name, file, line) -> Fmt.pr "  hot %s (%s:%d)@." name file line)
          result.Statflow.Analyze.hot_entries;
        List.iter
          (fun (name, file, line) -> Fmt.pr "  det %s (%s:%d)@." name file line)
          result.Statflow.Analyze.det_entries;
        List.iter
          (fun (name, c) ->
            Fmt.pr
              "  alloc summary %s: %d bindings, %d constructs, %d closures, \
               %d builders (%d in loops)@."
              name c.Statflow.Analyze.bindings c.Statflow.Analyze.constructs
              c.Statflow.Analyze.closures c.Statflow.Analyze.builders
              c.Statflow.Analyze.in_loop)
          result.Statflow.Analyze.summaries;
        if result.Statflow.Analyze.suppressed > 0 then
          Fmt.pr "%d finding%s suppressed by pragmas/allowlist@."
            result.Statflow.Analyze.suppressed
            (if result.Statflow.Analyze.suppressed = 1 then "" else "s");
        Fmt.pr "flow:@.%a" Lint.Report.pp findings)
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:
         "Allocation, exception-safety, and determinism static analysis of \
          the hot paths"
       ~man:
         [
           `S Manpage.s_description;
           `P "Parses every .ml file under the given roots with the \
               compiler's own front end, roots reachability at the sizer/SSTA \
               hot kernels and at the deterministic-result entry points, and \
               classifies three packs: HOT (heap allocation in iteration \
               contexts on hot paths, plus the boxed-float-return \
               heuristic), EXC (raises that can skip a resource release; \
               partial stdlib calls on hot paths), and DET \
               (order-sensitive Hashtbl traversals, wall-clock reads, and \
               ambient Random in result-producing code — the static \
               complement of the serial-vs-parallel bit-exactness gate). \
               Suppress a reviewed finding with a (* statflow: safe — \
               reason *) comment on the line or the line above, or with \
               $(b,--allow-file); stale suppressions are themselves flagged \
               (FLOW007). Exit codes match $(b,statsize lint): 0 clean or \
               warnings, 1 errors, 2 usage errors, 3 warnings with \
               $(b,--strict).";
         ])
    Term.(const run
          $ report_term ~cmd:"flow" ~severity_example:"HOT001=error,EXC002=info"
          $ roots_arg $ entry_arg $ allow_file_arg)

let serve_cmd =
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path to listen on.")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ]
          ~doc:"Domain-pool lanes for batch execution (1 = inline).")
  in
  let max_batch_arg =
    Arg.(
      value & opt int 64
      & info [ "max-batch" ] ~doc:"Cap on an explicit batch op's job count.")
  in
  let client_arg =
    Arg.(
      value & flag
      & info [ "client" ]
          ~doc:
            "Client mode: pipeline request lines from stdin to an already \
             running daemon at $(b,--socket) and print one response line \
             per request.")
  in
  let table1_arg =
    Arg.(
      value & flag
      & info [ "table1" ]
          ~doc:
            "Client mode: reproduce Table 1 through a running daemon (one \
             table1 job per suite circuit, pipelined on one connection).")
  in
  let run verbose socket domains max_batch client table1 names =
    setup_logs verbose;
    if table1 then
      match Serve.Table1_client.run ~socket ?names () with
      | Ok rows -> Fmt.pr "%a" Serve.Table1_client.pp rows
      | Error msg -> Fmt.failwith "serve table1: %s" msg
    else if client then begin
      let lines = In_channel.input_lines In_channel.stdin in
      let lines = List.filter (fun l -> String.trim l <> "") lines in
      List.iter print_endline (Serve.Client.session ~socket lines)
    end
    else
      try
        Serve.Daemon.run
          { (Serve.Daemon.default_config ~socket) with domains; max_batch }
      with Serve.Daemon.Socket_in_use path ->
        Fmt.epr "statsize serve: a daemon is already listening on %s@." path;
        exit 4
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident sizing daemon (or a client against one)"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Without $(b,--client)/$(b,--table1), listens on the Unix \
              socket for newline-delimited serve/1 JSON requests: ping, \
              info, analyze, optimize, table1, stats, batch, shutdown. \
              Parsed netlists and generated libraries are cached by \
              content across jobs; batched requests fan out across \
              $(b,--domains) pool lanes. Sizings are byte-identical for \
              every domain count. Exits 4, without touching the \
              socket, when a daemon already answers at $(b,--socket).";
           `P
             "Example session: echo \
              '{\"serve\":1,\"id\":1,\"op\":\"ping\"}' | statsize serve \
              --socket /tmp/statserve.sock --client";
         ])
    Term.(
      const run $ verbose_arg $ socket_arg $ domains_arg $ max_batch_arg
      $ client_arg $ table1_arg $ names_arg)

let main =
  let doc = "statistical gate sizing for process-variation tolerance" in
  Cmd.group
    (Cmd.info "statsize" ~doc
       ~man:
         [
           `S Manpage.s_common_options;
           `P
             "$(b,--metrics) $(i,FILE) and $(b,--trace) $(i,FILE) may be \
              placed anywhere on the command line (they are stripped before \
              subcommand parsing). They enable the statobs observability \
              layer for the whole invocation and, on exit, write a flat \
              metrics JSON (deterministic operation counters plus span \
              summaries) or a Chrome trace_event JSON loadable at \
              chrome://tracing, respectively.";
         ])
    [ list_cmd; info_cmd; lint_cmd; check_cmd; races_cmd; flow_cmd; analyze_cmd; optimize_cmd; paths_cmd; slack_cmd;
      pca_cmd; rank_cmd; dot_cmd; table1_cmd; fig1_cmd; fig3_cmd; fig4_cmd;
      approx_cmd; ablation_cmd; export_cmd; verilog_cmd; sdf_cmd; power_cmd;
      liberty_cmd; serve_cmd ]

(* cmdliner's group parser cannot accept options placed before the
   subcommand name, so the observability flags are stripped from argv by
   hand and the exports hang off [at_exit] — several subcommands (lint,
   check) terminate through [exit] deep inside their run functions, and
   at_exit is the only hook that sees every path out. *)
let obs_argv () =
  let metrics = ref None and trace = ref None in
  let die msg =
    Fmt.epr "statsize: %s@." msg;
    exit 2
  in
  let rec strip acc = function
    | [] -> List.rev acc
    | [ "--metrics" ] -> die "--metrics needs a FILE argument"
    | [ "--trace" ] -> die "--trace needs a FILE argument"
    | "--metrics" :: path :: rest ->
        metrics := Some path;
        strip acc rest
    | "--trace" :: path :: rest ->
        trace := Some path;
        strip acc rest
    | a :: rest when String.starts_with ~prefix:"--metrics=" a ->
        metrics := Some (String.sub a 10 (String.length a - 10));
        strip acc rest
    | a :: rest when String.starts_with ~prefix:"--trace=" a ->
        trace := Some (String.sub a 8 (String.length a - 8));
        strip acc rest
    | a :: rest -> strip (a :: acc) rest
  in
  let argv = Array.of_list (strip [] (Array.to_list Sys.argv)) in
  (argv, !metrics, !trace)

let () =
  let argv, metrics, trace = obs_argv () in
  if metrics <> None || trace <> None then begin
    Obs.Sink.reset ();
    Obs.Sink.enable ();
    at_exit (fun () ->
        Obs.Sink.disable ();
        Option.iter
          (fun path ->
            Obs.Sink.write_metrics ~path;
            Fmt.epr "statsize: wrote metrics %s@." path)
          metrics;
        Option.iter
          (fun path ->
            Obs.Sink.write_trace ~path;
            Fmt.epr "statsize: wrote trace %s@." path)
          trace)
  end;
  exit (Cmd.eval ~argv main)
