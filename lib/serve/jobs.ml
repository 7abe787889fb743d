let c_jobs = Obs.Counters.make "serve.jobs"
let c_job_errors = Obs.Counters.make "serve.jobs.errors"
let c_netlist_hits = Obs.Counters.make "serve.cache.netlist.hits"
let c_netlist_misses = Obs.Counters.make "serve.cache.netlist.misses"
let c_library_hits = Obs.Counters.make "serve.cache.library.hits"
let c_library_misses = Obs.Counters.make "serve.cache.library.misses"
let c_analysis_hits = Obs.Counters.make "serve.cache.analysis.hits"
let c_analysis_misses = Obs.Counters.make "serve.cache.analysis.misses"

(* What [analyze] reports of a netlist, before its per-request cost: the
   RV_O of a default FULLSSTA run over the initially sized netlist. *)
type analysis = { moments : Numerics.Clark.moments; sigma_over_mean : float }

(* One netlist cache entry. [pristine] is never mutated: read-only jobs
   read it directly and mutating jobs size a copy. [analysis] is filled by
   the first [analyze] that completes; the entry's key names the library,
   so the analysis is keyed by netlist and library together and leaves
   the cache with its netlist. *)
type entry = { pristine : Netlist.Circuit.t; analysis : analysis option Atomic.t }

type env = { libs : Cells.Library.t Cache.t; circuits : entry Cache.t }

let create_env () = { libs = Cache.create (); circuits = Cache.create () }

let ( let* ) = Result.bind

let cache_result ~hits ~misses = function
  | Cache.Hit v ->
      Obs.Counters.bump hits;
      (v, true)
  | Cache.Miss v ->
      Obs.Counters.bump misses;
      (v, false)

let resolve_lib env (spec : Protocol.libspec) =
  let key = Protocol.libspec_key spec in
  let build () =
    match spec with
    | { tau = None; strengths = None } -> Lazy.force Cells.Library.default
    | { tau; strengths } ->
        Cells.Library.generate ?tau ?strengths ~name:("serve:" ^ key) ()
  in
  let lib, hit =
    cache_result ~hits:c_library_hits ~misses:c_library_misses
      (Cache.find_or_build env.libs ~content:("library\x00" ^ key) ~build)
  in
  (lib, key, hit)

(* The cache key includes the library key because .bench technology
   mapping depends on the library's cells. [String.concat] copies the
   payload once; a right-nested [^] would copy it three times. *)
let circuit_content ~libkey = function
  | Protocol.Suite name -> String.concat "\x00" [ "suite"; libkey; name ]
  | Protocol.Bench text -> String.concat "\x00" [ "bench"; libkey; text ]

let resolve_circuit env ~lib ~libkey source =
  let build () =
    let pristine =
      match source with
      | Protocol.Suite name -> (
          match Benchgen.Iscas_like.find name with
          | Some entry -> entry.Benchgen.Iscas_like.build ~lib
          | None ->
              Fmt.failwith "unknown suite circuit %S (see `statsize list`)" name)
      | Protocol.Bench text -> Netlist.Bench_io.of_string ~name:"bench" ~lib text
    in
    { pristine; analysis = Atomic.make None }
  in
  match
    cache_result ~hits:c_netlist_hits ~misses:c_netlist_misses
      (Cache.find_or_build env.circuits
         ~content:(circuit_content ~libkey source)
         ~build)
  with
  | resolved -> Ok resolved
  | exception Netlist.Bench_io.Parse_error { line; code; message } ->
      Error
        (Protocol.err Protocol.Unknown_circuit "%s: line %d: %s" code line
           message)
  | exception Failure msg -> Error (Protocol.err Protocol.Unknown_circuit "%s" msg)

let cached_netlist env ~library source =
  Option.map
    (fun entry -> entry.pristine)
    (Cache.find env.circuits
       ~content:(circuit_content ~libkey:(Protocol.libspec_key library) source))

let num f = Obs.Json.Num f
let int i = Obs.Json.Num (float_of_int i)
let str s = Obs.Json.Str s

let cache_fields ~lib_hit ~circuit_hit =
  ( "cache",
    Obs.Json.Obj
      [
        ("library", str (if lib_hit then "hit" else "miss"));
        ("netlist", str (if circuit_hit then "hit" else "miss"));
      ] )

let sizing_digest circuit =
  let names =
    List.map
      (fun id -> Cells.Cell.name (Netlist.Circuit.cell_exn circuit id))
      (Netlist.Circuit.gates circuit)
  in
  Digest.to_hex (Digest.string (String.concat "," names))

let moments_fields prefix m =
  [
    (prefix ^ "mean", num m.Numerics.Clark.mean);
    (prefix ^ "sigma", num (Numerics.Clark.sigma m));
  ]

(* The entry's analysis, built on the first request: size a private copy
   and price it with FULLSSTA. The build is a deterministic function of the
   entry, so a lane that loses the publishing race answers with the
   winner's bit-identical value; a build that raises publishes nothing. *)
let analysis ~lib entry =
  match Atomic.get entry.analysis with
  | Some a ->
      Obs.Counters.bump c_analysis_hits;
      a
  | None -> (
      Obs.Counters.bump c_analysis_misses;
      let circuit = Netlist.Circuit.copy entry.pristine in
      ignore (Core.Initial_sizing.apply ~lib circuit);
      let full = Ssta.Fullssta.run circuit in
      let a =
        {
          moments = Ssta.Fullssta.output_moments full;
          sigma_over_mean = Ssta.Fullssta.sigma_over_mean full;
        }
      in
      if Atomic.compare_and_set entry.analysis None (Some a) then a
      else Option.value (Atomic.get entry.analysis) ~default:a)

let sizer_config ~max_iterations =
  let config = Core.Sizer.default_config in
  match max_iterations with
  | None -> config
  | Some n -> { config with max_iterations = n }

let stat_run_json (r : Experiments.Pipeline.stat_run) =
  Obs.Json.Obj
    [
      ("alpha", num r.alpha);
      ("mean_change_pct", num r.mean_change_pct);
      ("sigma_change_pct", num r.sigma_change_pct);
      ("final_sigma_over_mean", num r.final_sigma_over_mean);
      ("area_change_pct", num r.area_change_pct);
      ("iterations", int r.iterations);
      ("resizes", int r.resizes);
      ("runtime_s", num r.runtime_s);
      ("sizing_digest", str (sizing_digest r.circuit));
    ]

let run env job =
  match job with
  | Protocol.Ping -> Ok (Obs.Json.Obj [ ("pong", Obs.Json.Bool true) ])
  | Protocol.Stats ->
      (* counters count only while the observability gate is on: off, they
         would read as an idle daemon whatever it did *)
      let counting = Obs.Sink.enabled () in
      let counters =
        if counting then
          Obs.Json.Obj
            (List.map (fun (n, v) -> (n, int v)) (Obs.Counters.dump ()))
        else Obs.Json.Null
      in
      Ok
        (Obs.Json.Obj
           [
             ("counting", Obs.Json.Bool counting);
             ("counters", counters);
             ("cached_netlists", int (Cache.length env.circuits));
             ("cached_libraries", int (Cache.length env.libs));
           ])
  | Protocol.Shutdown -> Ok (Obs.Json.Obj [ ("stopping", Obs.Json.Bool true) ])
  | Protocol.Info { source; library } ->
      let lib, libkey, lib_hit = resolve_lib env library in
      let* entry, circuit_hit = resolve_circuit env ~lib ~libkey source in
      let circuit = entry.pristine in
      Ok
        (Obs.Json.Obj
           [
             ("name", str (Netlist.Circuit.name circuit));
             ("nodes", int (Netlist.Circuit.size circuit));
             ("gates", int (Netlist.Circuit.gate_count circuit));
             ("inputs", int (List.length (Netlist.Circuit.inputs circuit)));
             ("outputs", int (List.length (Netlist.Circuit.outputs circuit)));
             ("area", num (Netlist.Circuit.total_area circuit));
             cache_fields ~lib_hit ~circuit_hit;
           ])
  | Protocol.Analyze { source; library; alpha } ->
      let lib, libkey, lib_hit = resolve_lib env library in
      let* entry, circuit_hit = resolve_circuit env ~lib ~libkey source in
      let { moments = m; sigma_over_mean } = analysis ~lib entry in
      let objective = Core.Objective.create ~alpha in
      Ok
        (Obs.Json.Obj
           (moments_fields "" m
           @ [
               ("sigma_over_mean", num sigma_over_mean);
               ("alpha", num alpha);
               ("cost", num (Core.Objective.cost_of_moments objective m));
               cache_fields ~lib_hit ~circuit_hit;
             ]))
  | Protocol.Optimize { source; library; alpha; max_iterations; return_cells }
    ->
      let lib, libkey, lib_hit = resolve_lib env library in
      let* entry, circuit_hit = resolve_circuit env ~lib ~libkey source in
      let circuit = Netlist.Circuit.copy entry.pristine in
      let baseline =
        Experiments.Pipeline.prepare ~lib (fun () -> circuit)
      in
      let config = sizer_config ~max_iterations in
      let r = Experiments.Pipeline.run_alpha ~config ~lib baseline ~alpha in
      let cells =
        if not return_cells then []
        else
          [
            ( "cells",
              Obs.Json.Arr
                (List.map
                   (fun id ->
                     str
                       (Cells.Cell.name
                          (Netlist.Circuit.cell_exn r.Experiments.Pipeline.circuit
                             id)))
                   (Netlist.Circuit.gates r.Experiments.Pipeline.circuit)) );
          ]
      in
      Ok
        (Obs.Json.Obj
           ([
              ("name", str (Netlist.Circuit.name circuit));
              ("gates", int baseline.Experiments.Pipeline.gates);
            ]
           @ moments_fields "baseline_" baseline.Experiments.Pipeline.moments
           @ moments_fields "final_" r.Experiments.Pipeline.final_moments
           @ [
               ("final_area", num r.Experiments.Pipeline.final_area);
               ("mean_change_pct", num r.Experiments.Pipeline.mean_change_pct);
               ("sigma_change_pct", num r.Experiments.Pipeline.sigma_change_pct);
               ( "final_sigma_over_mean",
                 num r.Experiments.Pipeline.final_sigma_over_mean );
               ("area_change_pct", num r.Experiments.Pipeline.area_change_pct);
               ("iterations", int r.Experiments.Pipeline.iterations);
               ("resizes", int r.Experiments.Pipeline.resizes);
               ( "sizing_digest",
                 str (sizing_digest r.Experiments.Pipeline.circuit) );
               cache_fields ~lib_hit ~circuit_hit;
             ]
           @ cells))
  | Protocol.Table1 { source; library; alphas; max_iterations } ->
      let lib, libkey, lib_hit = resolve_lib env library in
      let* entry, circuit_hit = resolve_circuit env ~lib ~libkey source in
      let circuit = Netlist.Circuit.copy entry.pristine in
      let name = Netlist.Circuit.name circuit in
      let config = sizer_config ~max_iterations in
      let row =
        Experiments.Table1.run_circuit ~alphas ~sizer_config:config ~lib
          { Benchgen.Iscas_like.name; build = (fun ~lib:_ -> circuit) }
      in
      Ok
        (Obs.Json.Obj
           [
             ("name", str row.Experiments.Table1.name);
             ("gates", int row.Experiments.Table1.gates);
             ( "original_sigma_over_mean",
               num row.Experiments.Table1.original_sigma_over_mean );
             ( "runs",
               Obs.Json.Arr (List.map stat_run_json row.Experiments.Table1.runs)
             );
             cache_fields ~lib_hit ~circuit_hit;
           ])

let run env job =
  Obs.Counters.bump c_jobs;
  match run env job with
  | Ok _ as ok -> ok
  | Error _ as e ->
      Obs.Counters.bump c_job_errors;
      e
  | exception e ->
      Obs.Counters.bump c_job_errors;
      Error
        (Protocol.err Protocol.Job_failed "job raised: %s"
           (Printexc.to_string e))

let execute env job =
  (* wall-clock is service metadata, appended outside the deterministic
     result payload [run] produces *)
  let t0 = Unix.gettimeofday () in
  match run env job with
  | Ok (Obs.Json.Obj fields) ->
      Ok (Obs.Json.Obj (fields @ [ ("elapsed_s", num (Unix.gettimeofday () -. t0)) ]))
  | other -> other
