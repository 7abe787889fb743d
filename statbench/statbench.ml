(* statbench: the end-to-end and per-layer benchmark of statsize.

     statbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--statsize PATH] [--run-dir DIR]

   Runs one seeded workload for about S seconds and prints, as the last
   line of standard output, one JSON object: whether every output checked
   out, operations attempted and failed, and the metrics (end-to-end ones
   with --trace 0, per-layer ones with --trace 1). Lines before it are for
   readers: the same metrics by name, the extra reported figures, the
   digest set, and any failures. *)

let workloads =
  [
    ("table1-quick", Table1_quick.run);
    ("analyze-suite", Analyze_suite.run);
    ("serve-mixed", Serve_mixed.run);
  ]

let usage () =
  prerr_endline
    "usage: statbench.exe --workload (table1-quick|analyze-suite|serve-mixed) \
     --seed N --seconds S --trace 0|1 [--statsize PATH] [--run-dir DIR]";
  exit 2

let parse_args () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  {
    Ctx.workload;
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    trace;
    statsize =
      Option.value ~default:"_build/default/bin/statsize.exe" (List.assoc_opt "statsize" kv);
    run_dir = Option.value ~default:".statbench" (List.assoc_opt "run-dir" kv);
  }

let num f = Obs.Json.Num f

let () =
  let ctx = parse_args () in
  (* a daemon that dies mid-write must surface as EPIPE, not end the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Sys.mkdir ctx.run_dir 0o755 with Sys_error _ -> ());
  let out = Outcome.create () in
  List.assoc ctx.workload workloads ctx out;
  let metrics =
    if ctx.trace then
      List.map
        (fun (name, unit_) ->
          { Outcome.name; unit_; value = Option.value ~default:0.0 (List.assoc_opt name out.layers) })
        Layers.metrics
    else List.rev out.metrics
  in
  let show (m : Outcome.metric) = Printf.printf "%-28s %14.6g %s\n" m.name m.value m.unit_ in
  Printf.printf "statbench %s seed %d trace %d\n" ctx.workload ctx.seed (Bool.to_int ctx.trace);
  List.iter show metrics;
  Outcome.report out "failed_frac" "ratio"
    (Quantile.ratio (float_of_int out.failed) (float_of_int out.attempted));
  Outcome.report out "speed_factor" "ratio" (Calibrate.factor ());
  List.iter
    (fun (m : Outcome.metric) -> Printf.printf "report %s %.17g %s\n" m.name m.value m.unit_)
    (List.rev out.report);
  List.iter (fun (k, v) -> Printf.printf "digest %s %s\n" k v) (List.sort compare out.digests);
  List.iter (fun w -> Printf.printf "warning: %s\n" w) (List.rev out.warnings);
  List.iter
    (fun f -> Printf.printf "failed: %s\n" f)
    (List.sort_uniq compare out.failures);
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool (out.failed = 0 && out.attempted > 0));
        ("attempted", num (float_of_int out.attempted));
        ("failed", num (float_of_int out.failed));
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun (m : Outcome.metric) ->
                 (m.name, Obs.Json.Obj [ ("value", num m.value); ("unit", Obs.Json.Str m.unit_) ]))
               metrics) );
      ]
  in
  print_endline (Serve.Protocol.to_line json)
