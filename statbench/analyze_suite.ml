(* analyze-suite: statistical sign-off of all 13 suite circuits, with no
   sizing. Set-up exports each circuit to .bench text; the timed part
   parses, lints, applies the load-driven initial sizing, and runs
   FULLSSTA, FASSTA, the WNSS trace and Monte Carlo at a fixed trial
   count. The window drain does no work here, so a drain-only change must
   leave this workload unchanged. *)

let mc_trials = 100
let model = Variation.Model.default

type job = { name : string; text : string; gates : int }

type result = {
  circuit : Netlist.Circuit.t;
  full : Ssta.Fullssta.t;
  fast : Numerics.Clark.moments;
  path : Netlist.Circuit.id list;
  mc : Numerics.Stats.t;
}

let setup ~seed () =
  let lib, library_s = Clock.time Cells.Library.generate in
  let jobs =
    List.map
      (fun name ->
        let c = Inputs.build ~lib ~seed name in
        { name; text = Netlist.Bench_io.to_string c; gates = Netlist.Circuit.gate_count c })
      Benchgen.Iscas_like.names
  in
  (lib, library_s, jobs)

exception Lint_rejected of string

let run_job ~lib ~seed job =
  Spans.with_ ("signoff." ^ job.name) @@ fun () ->
  let circuit =
    Spans.with_ "netlist.parse" (fun () ->
        Netlist.Bench_io.of_string ~name:job.name ~lib job.text)
  in
  let diags = Spans.with_ "lint.check" (fun () -> Lint.Engine.check_all ~lib circuit) in
  (match List.find_opt (fun (d : Diag.t) -> d.severity = Diag.Severity.Error) diags with
  | Some d -> raise (Lint_rejected (d.code ^ ": " ^ d.message))
  | None -> ());
  ignore (Spans.with_ "core.initial_sizing" (fun () -> Core.Initial_sizing.apply ~lib circuit));
  let full = Spans.with_ "ssta.fullssta" (fun () -> Ssta.Fullssta.run circuit) in
  let fast =
    Spans.with_ "ssta.fassta" (fun () ->
        Ssta.Fassta.output_moments circuit (Ssta.Fassta.run circuit))
  in
  let path = Spans.with_ "core.wnss" (fun () -> Core.Wnss.trace ~model circuit full) in
  let mc =
    Spans.with_ "ssta.mc" (fun () ->
        Ssta.Monte_carlo.run
          ~config:{ Ssta.Monte_carlo.default_config with trials = mc_trials; seed }
          circuit)
  in
  { circuit; full; fast; path; mc = Ssta.Monte_carlo.circuit_stats mc }

(* A sanity band, not an accuracy claim: FULLSSTA's discrete max runs
   about 10% above Monte Carlo's mean on this suite. *)
let mc_mean_band = 0.2

let check (out : Outcome.t) job r =
  let fail fmt = Printf.ksprintf (fun m -> Outcome.fail out "%s: %s" job.name m; false) fmt in
  let m = Ssta.Fullssta.output_moments r.full in
  let mc_mean = Numerics.Stats.mean r.mc in
  let value =
    Printf.sprintf "%s full_mean=%.17g full_sigma=%.17g fassta_mean=%.17g mc_mean=%.17g path=%d"
      (Serve.Jobs.sizing_digest r.circuit) m.mean (Numerics.Clark.sigma m) r.fast.mean mc_mean
      (List.length r.path)
  in
  if Netlist.Circuit.gate_count r.circuit <> job.gates then
    fail "parsed %d gates, exported %d" (Netlist.Circuit.gate_count r.circuit) job.gates
  else if Ssta.Fullssta.check r.full <> [] then fail "FULLSSTA self-check failed"
  else if
    match r.path with
    | [] -> true
    | first :: _ ->
        (not (Netlist.Circuit.is_output r.circuit first))
        || not (Netlist.Circuit.is_input r.circuit (List.nth r.path (List.length r.path - 1)))
  then fail "WNSS path does not run from an output to an input"
  else if Float.abs (m.mean -. mc_mean) > mc_mean_band *. mc_mean then
    fail "FULLSSTA mean %.2f vs Monte Carlo %.2f" m.mean mc_mean
  else
    match List.assoc_opt job.name out.Outcome.digests with
    | Some first when not (String.equal first value) -> fail "result differs from the first pass"
    | _ ->
        Outcome.digest out job.name value;
        true

let run (ctx : Ctx.t) (out : Outcome.t) =
  let library_times = ref [] in
  let (lib, jobs), setup_s =
    Batch.timed_setups (fun () ->
        let lib, library_s, jobs = setup ~seed:ctx.seed () in
        library_times := library_s :: !library_times;
        (lib, jobs))
  in
  if not (Inputs.check_profiles ~lib Benchgen.Iscas_like.names) then
    Outcome.fail out "DAG profile table does not reproduce the built-in suite";
  let last = ref [] in
  let pass ~traced =
    let results = ref [] in
    let thunks =
      List.map
        (fun job () ->
          let r =
            match run_job ~lib ~seed:ctx.seed job with
            | r -> Ok r
            | exception e -> Error (Printexc.to_string e)
          in
          results := (job, r) :: !results)
        jobs
    in
    let p = Batch.run_pass ~traced thunks in
    last :=
      List.filter_map
        (fun (job, r) ->
          Outcome.attempt out;
          match r with
          | Error msg ->
              Outcome.fail out "%s: %s" job.name msg;
              None
          | Ok r -> if check out job r then Some r.circuit else None)
        (List.rev !results);
    p
  in
  let passes = Batch.loop ctx pass in
  Batch.end_to_end out ~setup_s passes;
  if ctx.trace then begin
    let layers = Batch.common_layers out ~what:ctx.workload passes in
    let timed =
      Batch.median_layers passes (fun p ->
          let total = Spans.total (Spans.summarize p.spans) in
          let bytes = Quantile.sum (List.map (fun j -> float_of_int (String.length j.text)) jobs) in
          [
            ("netlist.parse_s", total "netlist.parse");
            ("netlist.parse_mb_per_s", Quantile.ratio (bytes /. 1e6) (total "netlist.parse"));
            ("lint.check_s", total "lint.check");
            ("ssta.mc_s", total "ssta.mc");
            ("core.wnss_s", total "core.wnss");
          ])
    in
    List.iter
      (fun (k, v) -> Outcome.layer out k v)
      (layers @ timed
      @ [
          ("cells.library_s", Quantile.median !library_times);
          ("numerics.clark_ns_per_op", Layers.clark_ns_per_op !last);
          ("sta.electrical_ns_per_node", Layers.electrical_ns_per_node !last);
        ]);
    Batch.write_trace ctx passes
  end
