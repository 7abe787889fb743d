let c_jobs = Obs.Counters.make "serve.jobs"
let c_job_errors = Obs.Counters.make "serve.jobs.errors"
let c_netlist_hits = Obs.Counters.make "serve.cache.netlist.hits"
let c_netlist_misses = Obs.Counters.make "serve.cache.netlist.misses"
let c_library_hits = Obs.Counters.make "serve.cache.library.hits"
let c_library_misses = Obs.Counters.make "serve.cache.library.misses"
let c_collisions = Obs.Counters.make "serve.cache.collisions"

type env = {
  libs : Cells.Library.t Cache.t;
  circuits : Netlist.Circuit.t Cache.t;
}

let create_env ?hash () =
  { libs = Cache.create ?hash (); circuits = Cache.create ?hash () }

let ( let* ) = Result.bind

let cache_result ~hits ~misses ~collision_msg outcome =
  match outcome with
  | Cache.Hit v ->
      Obs.Counters.bump hits;
      Ok (v, true)
  | Cache.Miss v ->
      Obs.Counters.bump misses;
      Ok (v, false)
  | Cache.Collision msg ->
      Obs.Counters.bump c_collisions;
      Error (Protocol.err Protocol.Cache_collision "%s: %s" collision_msg msg)

let resolve_lib env (spec : Protocol.libspec) =
  let key = Protocol.libspec_key spec in
  let build () =
    match spec with
    | { tau = None; strengths = None } -> Lazy.force Cells.Library.default
    | { tau; strengths } ->
        Cells.Library.generate ?tau ?strengths ~name:("serve:" ^ key) ()
  in
  let* lib, hit =
    cache_result ~hits:c_library_hits ~misses:c_library_misses
      ~collision_msg:"library cache"
      (Cache.find_or_build env.libs ~content:("library\x00" ^ key) ~build)
  in
  Ok (lib, key, hit)

(* The cached value is the pristine parsed/generated netlist; every caller
   gets a private copy. The cache key includes the library key because
   .bench technology mapping depends on the library's cells. *)
let resolve_circuit env ~lib ~libkey source =
  let content, build =
    match source with
    | Protocol.Suite name ->
        ( "suite\x00" ^ libkey ^ "\x00" ^ name,
          fun () ->
            match Benchgen.Iscas_like.find name with
            | Some entry -> entry.Benchgen.Iscas_like.build ~lib
            | None ->
                Fmt.failwith "unknown suite circuit %S (see `statsize list`)"
                  name )
    | Protocol.Bench text ->
        ( "bench\x00" ^ libkey ^ "\x00" ^ text,
          fun () -> Netlist.Bench_io.of_string ~name:"bench" ~lib text )
  in
  match
    cache_result ~hits:c_netlist_hits ~misses:c_netlist_misses
      ~collision_msg:"netlist cache"
      (Cache.find_or_build env.circuits ~content ~build)
  with
  | Ok (pristine, hit) -> Ok (Netlist.Circuit.copy pristine, hit)
  | Error e -> Error e
  | exception Netlist.Bench_io.Parse_error { line; code; message } ->
      Error
        (Protocol.err Protocol.Unknown_circuit "%s: line %d: %s" code line
           message)
  | exception Failure msg -> Error (Protocol.err Protocol.Unknown_circuit "%s" msg)

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
      let counters =
        List.map (fun (n, v) -> (n, int v)) (Obs.Counters.dump ())
      in
      Ok
        (Obs.Json.Obj
           [
             ("counters", Obs.Json.Obj counters);
             ("cached_netlists", int (Cache.length env.circuits));
             ("cached_libraries", int (Cache.length env.libs));
           ])
  | Protocol.Shutdown -> Ok (Obs.Json.Obj [ ("stopping", Obs.Json.Bool true) ])
  | Protocol.Info { source; library } ->
      let* lib, libkey, lib_hit = resolve_lib env library in
      let* circuit, circuit_hit = resolve_circuit env ~lib ~libkey source in
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
      let* lib, libkey, lib_hit = resolve_lib env library in
      let* circuit, circuit_hit = resolve_circuit env ~lib ~libkey source in
      ignore (Core.Initial_sizing.apply ~lib circuit);
      let full = Ssta.Fullssta.run circuit in
      let m = Ssta.Fullssta.output_moments full in
      let objective = Core.Objective.create ~alpha in
      Ok
        (Obs.Json.Obj
           (moments_fields "" m
           @ [
               ("sigma_over_mean", num (Ssta.Fullssta.sigma_over_mean full));
               ("alpha", num alpha);
               ("cost", num (Core.Objective.cost_of_moments objective m));
               cache_fields ~lib_hit ~circuit_hit;
             ]))
  | Protocol.Optimize { source; library; alpha; max_iterations; return_cells }
    ->
      let* lib, libkey, lib_hit = resolve_lib env library in
      let* circuit, circuit_hit = resolve_circuit env ~lib ~libkey source in
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
      let* lib, libkey, lib_hit = resolve_lib env library in
      let* circuit, circuit_hit = resolve_circuit env ~lib ~libkey source in
      let name = Netlist.Circuit.name circuit in
      let entry =
        { Benchgen.Iscas_like.name; build = (fun ~lib:_ -> circuit) }
      in
      let config = sizer_config ~max_iterations in
      let row =
        Experiments.Table1.run_circuit ~alphas ~sizer_config:config ~lib entry
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
