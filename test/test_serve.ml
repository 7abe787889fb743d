(* statserve: protocol units, cache/pool behavior, job determinism, and the
   daemon robustness contract (malformed lines, oversized batches and
   mid-job disconnects all come back as typed serve/1 errors or end one
   connection instead of killing the daemon; the socket is connectable as
   soon as its file exists). *)

open Test_util

module P = Serve.Protocol

let parse_ok line =
  match P.parse_line line with
  | Ok p -> p
  | Error (_, e) ->
      Alcotest.failf "parse_line %S: unexpected error %s: %s" line
        (P.code_string e.P.code) e.P.message

let parse_err line =
  match P.parse_line line with
  | Ok _ -> Alcotest.failf "parse_line %S: unexpected success" line
  | Error (id, e) -> (id, e)

(* ---- protocol ---------------------------------------------------------- *)

let test_parse_ping () =
  match parse_ok {|{"serve":1,"id":7,"op":"ping"}|} with
  | P.Single { id = Obs.Json.Num 7.0; job = P.Ping } -> ()
  | _ -> Alcotest.fail "expected Single ping with id 7"

let test_parse_optimize_defaults () =
  match parse_ok {|{"serve":1,"id":"a","op":"optimize","circuit":"alu1"}|} with
  | P.Single
      {
        job =
          P.Optimize
            {
              source = P.Suite "alu1";
              alpha;
              max_iterations = None;
              return_cells = false;
              _;
            };
        _;
      } ->
      close "default alpha" 3.0 alpha
  | _ -> Alcotest.fail "expected optimize with defaults"

(* serve/1 ignores unknown fields: a line from an older client that still
   sends a per-job "domains" field parses to the same job as the line
   without it. *)
let test_parse_stale_domains () =
  List.iter
    (fun (what, with_domains, without) ->
      check_true what (parse_ok with_domains = parse_ok without))
    [
      ( "optimize",
        {|{"serve":1,"id":1,"op":"optimize","circuit":"alu1","alpha":9,"domains":4}|},
        {|{"serve":1,"id":1,"op":"optimize","circuit":"alu1","alpha":9}|} );
      ( "table1",
        {|{"serve":1,"id":2,"op":"table1","circuit":"c432","alphas":[3,9],"domains":4,"max_iterations":2}|},
        {|{"serve":1,"id":2,"op":"table1","circuit":"c432","alphas":[3,9],"max_iterations":2}|}
      );
    ]

let test_parse_errors () =
  let check_code what expected line =
    let _, e = parse_err line in
    Alcotest.(check string) what expected (P.code_string e.P.code)
  in
  check_code "not json" "parse_error" "{nope";
  check_code "not serve/1" "parse_error" {|{"id":1,"op":"ping"}|};
  check_code "missing op" "bad_request" {|{"serve":1,"id":1}|};
  check_code "unknown op" "unknown_op" {|{"serve":1,"id":1,"op":"frobnicate"}|};
  check_code "bad alpha" "bad_request"
    {|{"serve":1,"id":1,"op":"optimize","circuit":"alu1","alpha":"three"}|};
  check_code "two sources" "bad_request"
    {|{"serve":1,"id":1,"op":"info","circuit":"alu1","bench":"..."}|};
  check_code "nested batch" "bad_request"
    {|{"serve":1,"id":1,"op":"batch","jobs":[{"op":"batch","jobs":[]}]}|};
  (* the id must survive the error for response correlation *)
  let id, _ = parse_err {|{"serve":1,"id":42,"op":"frobnicate"}|} in
  check_true "id recovered" (id = Obs.Json.Num 42.0)

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* A count must be a non-negative integer that a double holds exactly:
   [int_of_float] turned 1e300 and 1e19 into 0 and kept -5, and each such
   request answered ok with a sizing that did nothing. *)
let test_parse_max_iterations () =
  let line op v =
    Printf.sprintf
      {|{"serve":1,"id":1,"op":"%s","circuit":"alu1","max_iterations":%s}|} op
      v
  in
  List.iter
    (fun op ->
      List.iter
        (fun v ->
          let what = Printf.sprintf "%s max_iterations %s" op v in
          let _, e = parse_err (line op v) in
          Alcotest.(check string) what "bad_request" (P.code_string e.P.code);
          check_true (what ^ ": message names the field")
            (contains e.P.message "max_iterations"))
        [ "1e300"; "1e19"; "-5"; "9007199254740992"; "2.5" ])
    [ "optimize"; "table1" ];
  (match parse_ok (line "optimize" "2") with
  | P.Single { job = P.Optimize { max_iterations = Some 2; _ }; _ } -> ()
  | _ -> Alcotest.fail "optimize max_iterations 2");
  match parse_ok (line "table1" "9007199254740991") with
  | P.Single { job = P.Table1 { max_iterations = Some 9007199254740991; _ }; _ }
    ->
      ()
  | _ -> Alcotest.fail "table1 max_iterations 2^53 - 1"

let test_render_response () =
  let ok =
    P.render_response
      {
        P.id = Obs.Json.Num 1.0;
        body = Ok (Obs.Json.Obj [ ("pong", Obs.Json.Bool true) ]);
      }
  in
  Alcotest.(check string)
    "ok line" {|{"serve":1,"id":1,"ok":true,"result":{"pong":true}}|} ok;
  let err =
    P.render_response
      {
        P.id = Obs.Json.Str "x";
        body = Error (P.err P.Unknown_op "no such op %S" "zap");
      }
  in
  check_true "single line" (not (String.contains err '\n'));
  let json = Obs.Json.parse_exn err in
  check_true "ok false" (Obs.Json.member "ok" json = Some (Obs.Json.Bool false));
  (match Obs.Json.member "error" json with
  | Some e ->
      check_true "code"
        (Obs.Json.member "code" e = Some (Obs.Json.Str "unknown_op"))
  | None -> Alcotest.fail "no error member");
  (* escaping: a string result with quotes/newlines must stay one line *)
  let tricky =
    P.render_response
      {
        P.id = Obs.Json.Null;
        body = Ok (Obs.Json.Obj [ ("s", Obs.Json.Str "a\"b\nc\\d") ]);
      }
  in
  check_true "escaped single line" (not (String.contains tricky '\n'));
  match Obs.Json.member "result" (Obs.Json.parse_exn tricky) with
  | Some r ->
      check_true "roundtrip"
        (Obs.Json.member "s" r = Some (Obs.Json.Str "a\"b\nc\\d"))
  | None -> Alcotest.fail "no result member"

(* A cost that overflows to infinity is written as null, so the response
   still parses (RFC 8259 has no infinity). *)
let test_render_non_finite () =
  let line =
    {|{"serve":1,"id":7,"op":"analyze","circuit":"alu1","alpha":1e308}|}
  in
  match P.parse_line line with
  | Ok (P.Single { id; job }) -> (
      let env = Serve.Jobs.create_env () in
      let rendered = P.render_response { P.id; body = Serve.Jobs.run env job } in
      match Obs.Json.parse_result rendered with
      | Error (msg, at) ->
          Alcotest.failf "response does not parse at byte %d: %s" at msg
      | Ok json -> (
          match Obs.Json.member "result" json with
          | Some r ->
              check_true "cost is null"
                (Obs.Json.member "cost" r = Some Obs.Json.Null)
          | None -> Alcotest.failf "no result: %s" rendered))
  | _ -> Alcotest.fail "request did not parse as one job"

(* ---- cache ------------------------------------------------------------- *)

let test_cache_hit_miss () =
  let cache = Serve.Cache.create () in
  let builds = ref 0 in
  let build () = incr builds; String.length "payload" in
  (match Serve.Cache.find_or_build cache ~content:"payload" ~build with
  | Serve.Cache.Miss 7 -> ()
  | _ -> Alcotest.fail "expected Miss 7");
  (match Serve.Cache.find_or_build cache ~content:"payload" ~build with
  | Serve.Cache.Hit 7 -> ()
  | _ -> Alcotest.fail "expected Hit 7");
  check_int "built once" 1 !builds;
  check_int "one entry" 1 (Serve.Cache.length cache)

let test_cache_build_raises () =
  let cache = Serve.Cache.create () in
  (try
     ignore
       (Serve.Cache.find_or_build cache ~content:"x" ~build:(fun () ->
            failwith "boom"))
   with Failure _ -> ());
  check_int "nothing cached" 0 (Serve.Cache.length cache);
  match Serve.Cache.find_or_build cache ~content:"x" ~build:(fun () -> 9) with
  | Serve.Cache.Miss 9 -> ()
  | _ -> Alcotest.fail "expected Miss after failed build"

(* ---- pool -------------------------------------------------------------- *)

let test_pool_order () =
  let tasks = List.init 23 (fun i () -> i * i) in
  let expect = List.init 23 (fun i -> i * i) in
  Alcotest.(check (list int)) "inline" expect (Serve.Pool.map ~domains:1 tasks);
  Alcotest.(check (list int)) "4 lanes" expect (Serve.Pool.map ~domains:4 tasks);
  Alcotest.(check (list int)) "more lanes than tasks" [ 1; 2 ]
    (Serve.Pool.map ~domains:8 [ (fun () -> 1); (fun () -> 2) ]);
  Alcotest.(check (list int)) "empty" [] (Serve.Pool.map ~domains:4 [])

(* ---- jobs -------------------------------------------------------------- *)

let run_job job = Serve.Jobs.run (Serve.Jobs.create_env ()) job

let job_err what expected result =
  match result with
  | Ok _ -> Alcotest.failf "%s: unexpected success" what
  | Error e ->
      Alcotest.(check string) what expected (P.code_string e.P.code)

let test_job_unknown_circuit () =
  job_err "bad suite name" "unknown_circuit"
    (run_job
       (P.Info { source = P.Suite "nope"; library = P.default_libspec }));
  job_err "bad bench text" "unknown_circuit"
    (run_job
       (P.Info { source = P.Bench "not a bench file"; library = P.default_libspec }));
  (* the three inputs that once escaped the reader as [Invalid_argument]
     and came back as job_failed with the OCaml exception's text *)
  List.iter
    (fun (what, text) ->
      job_err what "unknown_circuit"
        (run_job (P.Info { source = P.Bench text; library = P.default_libspec })))
    [
      ("repeated INPUT", "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
      ("'=' after '('", "INPUT(a)\nOUTPUT(x=y)\ny = NOT(a)\n");
      ("dangling gate", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nu = NOT(a)\n");
    ]

let optimize_digest env =
  match
    Serve.Jobs.run env
      (P.Optimize
         {
           source = P.Suite "alu1";
           library = P.default_libspec;
           alpha = 3.0;
           max_iterations = Some 3;
           return_cells = false;
         })
  with
  | Error e -> Alcotest.failf "optimize: %s" e.P.message
  | Ok result -> (
      match Obs.Json.member "sizing_digest" result with
      | Some (Obs.Json.Str d) -> d
      | _ -> Alcotest.fail "no sizing_digest")

(* The same job twice on one env: the second run hits the netlist cache, so
   this also checks that the first job left the cached pristine netlist
   untouched. *)
let test_job_determinism () =
  let env = Serve.Jobs.create_env () in
  let first = optimize_digest env in
  let second = optimize_digest env in
  Alcotest.(check string) "repeat run" first second

(* ---- the analysis slot ------------------------------------------------- *)

let analyze ?(library = P.default_libspec) source alpha =
  P.Analyze { source; library; alpha }

let info ?(library = P.default_libspec) source = P.Info { source; library }

(* A result's bytes without the named fields: the wall-clock field
   [execute] appends, and where a request's cache state may differ from
   its oracle's, the cache field. *)
let render_masked ?(mask = [ "elapsed_s" ]) result =
  let masked =
    match result with
    | Ok (Obs.Json.Obj fields) ->
        Ok
          (Obs.Json.Obj (List.filter (fun (k, _) -> not (List.mem k mask)) fields))
    | other -> other
  in
  P.render_response { P.id = Obs.Json.Null; body = masked }

(* Counters count only while the sink is on. *)
let with_counters f =
  Obs.Sink.reset ();
  Obs.Sink.enable ();
  Fun.protect ~finally:Obs.Sink.disable f

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.Counters.dump ()))

(* [stats] says whether its counters count: [null] while the observability
   gate is off, the counter block (this job included) while it is on. *)
let test_job_stats_counting () =
  let stats () =
    match run_job P.Stats with
    | Ok json -> json
    | Error e -> Alcotest.failf "stats: %s" e.P.message
  in
  let off = stats () in
  check_true "off: not counting"
    (Obs.Json.member "counting" off = Some (Obs.Json.Bool false));
  check_true "off: counters null"
    (Obs.Json.member "counters" off = Some Obs.Json.Null);
  with_counters @@ fun () ->
  let on = stats () in
  check_true "on: counting"
    (Obs.Json.member "counting" on = Some (Obs.Json.Bool true));
  check_true "on: this job counted"
    (Option.bind (Obs.Json.member "counters" on) (Obs.Json.member "serve.jobs")
    = Some (Obs.Json.Num 1.0))

let bench_payload =
  lazy (Netlist.Bench_io.to_string (Benchgen.Iscas_like.build_exn ~lib "alu2"))

(* (a) A first analyze (netlist and analysis miss) and its repeats
   (analysis hits) give the bytes a fresh env gives for the same request:
   a cold fresh env for the first, and a fresh env whose netlist an [info]
   already cached for the repeats, so the cache field agrees too. *)
let test_analysis_repeats_fresh_bytes () =
  with_counters @@ fun () ->
  List.iter
    (fun (label, source) ->
      let env = Serve.Jobs.create_env () in
      List.iteri
        (fun i alpha ->
          let what = Printf.sprintf "%s request %d (alpha %g)" label i alpha in
          let got = render_masked (Serve.Jobs.execute env (analyze source alpha)) in
          let fresh = Serve.Jobs.create_env () in
          if i > 0 then ignore (Serve.Jobs.run fresh (info source));
          let want =
            render_masked (Serve.Jobs.execute fresh (analyze source alpha))
          in
          Alcotest.(check string) what want got)
        [ 3.0; 9.0; 3.0; 9.0 ])
    [
      ("alu1", P.Suite "alu1");
      ("c432", P.Suite "c432");
      ("c1908", P.Suite "c1908");
      ("bench alu2", P.Bench (Lazy.force bench_payload));
    ];
  (* per source: one miss on the shared env, one per fresh env *)
  check_int "analysis misses" (4 * 5) (counter "serve.cache.analysis.misses");
  check_int "analysis hits" (4 * 3) (counter "serve.cache.analysis.hits")

(* (b) Pool lanes racing on one cold circuit: every answer is the same,
   and every request is a hit or a miss, at least one of them a miss. *)
let test_analysis_race () =
  with_counters @@ fun () ->
  let env = Serve.Jobs.create_env () in
  let job = analyze (P.Suite "c1908") 3.0 in
  let render = render_masked ~mask:[ "cache" ] in
  let answers =
    Serve.Pool.map ~domains:2
      (List.init 6 (fun _ () -> render (Serve.Jobs.run env job)))
  in
  let hits = counter "serve.cache.analysis.hits"
  and misses = counter "serve.cache.analysis.misses" in
  check_int "hits + misses" 6 (hits + misses);
  check_true "a lane built it" (misses >= 1);
  let fresh = render (Serve.Jobs.run (Serve.Jobs.create_env ()) job) in
  List.iteri
    (fun i a -> Alcotest.(check string) (Printf.sprintf "answer %d" i) fresh a)
    answers

(* (c) Neither [info] nor [analyze] (miss or hit) changes the cached
   pristine netlist, and an [optimize] after them sizes what a fresh env
   sizes. The .bench text names each gate's function, not its drive, so
   the cells are compared too; initial sizing leaves alu1's cells as
   built but not c432's. *)
let test_analysis_leaves_pristine () =
  let env = Serve.Jobs.create_env () in
  let pristine source =
    match Serve.Jobs.cached_netlist env ~library:P.default_libspec source with
    | Some c -> Netlist.Bench_io.to_string c ^ Serve.Jobs.sizing_digest c
    | None -> Alcotest.fail "circuit not cached"
  in
  List.iter
    (fun name ->
      let source = P.Suite name in
      let info_bytes () = render_masked (Serve.Jobs.run env (info source)) in
      ignore (info_bytes ());
      let before = pristine source and info_before = info_bytes () in
      ignore (Serve.Jobs.run env (analyze source 3.0));
      ignore (Serve.Jobs.run env (analyze source 9.0));
      Alcotest.(check string)
        (name ^ ": info unchanged")
        info_before (info_bytes ());
      Alcotest.(check string)
        (name ^ ": pristine netlist unchanged")
        before (pristine source))
    [ "alu1"; "c432" ];
  let alu1 = pristine (P.Suite "alu1") in
  Alcotest.(check string) "optimize after analyze"
    (optimize_digest (Serve.Jobs.create_env ()))
    (optimize_digest env);
  Alcotest.(check string) "pristine netlist unchanged by optimize" alu1
    (pristine (P.Suite "alu1"))

(* (d) The slot lives in the netlist's entry, whose key names the library:
   the same circuit under another library is analyzed under that library. *)
let test_analysis_per_library () =
  with_counters @@ fun () ->
  let env = Serve.Jobs.create_env () in
  let source = P.Suite "alu1" in
  let other = { P.tau = Some 6.0; strengths = None } in
  let render = render_masked ~mask:[ "cache" ] in
  let default_answer = render (Serve.Jobs.run env (analyze source 3.0)) in
  let other_answer =
    render (Serve.Jobs.run env (analyze ~library:other source 3.0))
  in
  check_int "one analysis per library" 2 (counter "serve.cache.analysis.misses");
  check_true "the libraries' answers differ" (default_answer <> other_answer);
  Alcotest.(check string) "other library = a fresh env's answer"
    (render
       (Serve.Jobs.run (Serve.Jobs.create_env ())
          (analyze ~library:other source 3.0)))
    other_answer;
  Alcotest.(check string) "default library answer kept" default_answer
    (render (Serve.Jobs.run env (analyze source 3.0)));
  check_int "then a hit" 1 (counter "serve.cache.analysis.hits")

(* ---- daemon over a real socket ---------------------------------------- *)

let socket_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "statserve-test-%s-%d.sock" name (Unix.getpid ()))

(* Run a daemon in its own domain and hand its socket to [f] as soon as
   the file exists: the daemon renames the socket into place only once it
   listens, so the first connect must succeed. Afterwards, send [shutdown]
   on a fresh connection and join, so a raising [f] fails the test instead
   of joining a daemon that never stops. A daemon that is already gone or
   going ([f] shut it down) refuses, resets or closes that connection. *)
let wait_for_socket socket =
  let rec wait tries =
    if not (Sys.file_exists socket) then
      if tries = 0 then Alcotest.failf "%s never appeared" socket
      else begin
        Unix.sleepf 0.001;
        wait (tries - 1)
      end
  in
  wait 10_000

let shutdown_line = {|{"serve":1,"id":0,"op":"shutdown"}|}

let send_shutdown socket =
  try ignore (Serve.Client.session ~socket [ shutdown_line ])
  with Unix.Unix_error _ | Sys_error _ | Failure _ -> ()

let with_daemon ?(max_request_bytes = 8 * 1024 * 1024) name f =
  let socket = socket_path name in
  (try Sys.remove socket with Sys_error _ -> ());
  let config =
    { (Serve.Daemon.default_config ~socket) with max_batch = 4; max_request_bytes }
  in
  let daemon = Domain.spawn (fun () -> Serve.Daemon.run config) in
  let stop () =
    send_shutdown socket;
    Domain.join daemon
  in
  Fun.protect ~finally:stop (fun () ->
      wait_for_socket socket;
      f socket)

let response_code line =
  let json = Obs.Json.parse_exn line in
  match Obs.Json.member "error" json with
  | Some e -> (
      match Obs.Json.member "code" e with
      | Some (Obs.Json.Str c) -> c
      | _ -> Alcotest.fail "error without code")
  | None -> "ok"

let test_daemon_malformed_line () =
  with_daemon "malformed" (fun socket ->
      match
        Serve.Client.session ~socket
          [
            "this is not json";
            {|{"serve":1,"id":1,"op":"ping"}|};
            {|{"serve":1,"id":2,"op":"frobnicate"}|};
            {|{"serve":1,"id":3,"op":"ping"}|};
          ]
      with
      | [ a; b; c; d ] ->
          Alcotest.(check string) "garbage line" "parse_error" (response_code a);
          Alcotest.(check string) "ping still served" "ok" (response_code b);
          Alcotest.(check string) "unknown op" "unknown_op" (response_code c);
          Alcotest.(check string) "daemon alive" "ok" (response_code d)
      | rs -> Alcotest.failf "expected 4 responses, got %d" (List.length rs))

let test_daemon_oversized_batch () =
  with_daemon "oversized" (fun socket ->
      let jobs =
        String.concat ","
          (List.init 5 (fun i ->
               Printf.sprintf {|{"id":%d,"op":"ping"}|} i))
      in
      let batch =
        Printf.sprintf {|{"serve":1,"id":"b","op":"batch","jobs":[%s]}|} jobs
      in
      match
        Serve.Client.session ~socket [ batch; {|{"serve":1,"id":9,"op":"ping"}|} ]
      with
      | [ a; b ] ->
          Alcotest.(check string) "batch rejected" "oversized_batch"
            (response_code a);
          Alcotest.(check string) "daemon alive" "ok" (response_code b)
      | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs))

let test_daemon_disconnect_mid_job () =
  with_daemon "disconnect" (fun socket ->
      (* first connection: fire a real job and hang up without reading *)
      let c = Serve.Client.connect ~socket in
      Serve.Client.send_line c
        {|{"serve":1,"id":1,"op":"optimize","circuit":"alu1","max_iterations":2}|};
      Serve.Client.close c;
      (* the daemon must survive the EPIPE and serve the next connection *)
      match Serve.Client.session ~socket [ {|{"serve":1,"id":2,"op":"ping"}|} ] with
      | [ r ] -> Alcotest.(check string) "daemon survived" "ok" (response_code r)
      | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs))

let test_daemon_batch_and_shutdown () =
  with_daemon "batch" (fun socket ->
      (match
         Serve.Client.session ~socket
           [
             {|{"serve":1,"id":"b","op":"batch","jobs":[{"id":1,"op":"ping"},{"id":2,"op":"info","circuit":"alu1"}]}|};
           ]
       with
      | [ r ] -> (
          let json = Obs.Json.parse_exn r in
          match
            Option.bind (Obs.Json.member "result" json) (Obs.Json.member "results")
          with
          | Some (Obs.Json.Arr [ _; _ ]) -> ()
          | _ -> Alcotest.fail "expected 2 batch results")
      | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
      match
        Serve.Client.session ~socket [ {|{"serve":1,"id":0,"op":"shutdown"}|} ]
      with
      | [ r ] -> Alcotest.(check string) "shutdown acked" "ok" (response_code r)
      | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs))

(* Twenty daemon starts, each connected to once, without a retry, as soon
   as its socket file exists; each leaves neither the socket nor its
   temporary name behind. *)
let test_daemon_socket_ready () =
  for i = 1 to 20 do
    with_daemon "ready" (fun socket ->
        match Serve.Client.session ~socket [ {|{"serve":1,"id":1,"op":"ping"}|} ] with
        | [ r ] ->
            Alcotest.(check string) (Printf.sprintf "start %d" i) "ok" (response_code r)
        | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs))
  done;
  let socket = socket_path "ready" in
  check_true "socket removed" (not (Sys.file_exists socket));
  check_true "temporary name removed" (not (Sys.file_exists (socket ^ ".tmp")))

let ping socket =
  match Serve.Client.session ~socket [ {|{"serve":1,"id":1,"op":"ping"}|} ] with
  | [ r ] -> response_code r
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

(* A second daemon on a live daemon's path must refuse before it creates or
   removes anything, and the first must keep its file and keep answering.
   The second runs in its own domain: should it take the path over
   instead, it is shut down through the path and the test fails. The first
   is then unreachable, so it is left running rather than joined. *)
let test_daemon_refuses_live_socket () =
  let socket = socket_path "live" in
  (try Sys.remove socket with Sys_error _ -> ());
  let first =
    Domain.spawn (fun () ->
        Serve.Daemon.run (Serve.Daemon.default_config ~socket))
  in
  wait_for_socket socket;
  let outcome = Atomic.make None in
  let second =
    Domain.spawn (fun () ->
        Atomic.set outcome
          (Some
             (match Serve.Daemon.run (Serve.Daemon.default_config ~socket) with
             | () -> None
             | exception Serve.Daemon.Socket_in_use path -> Some path)))
  in
  let rec wait tries =
    match Atomic.get outcome with
    | Some r -> Some r
    | None when tries = 0 -> None
    | None ->
        Unix.sleepf 0.001;
        wait (tries - 1)
  in
  match wait 5_000 with
  | None | Some None ->
      send_shutdown socket;
      Domain.join second;
      Alcotest.fail "a second daemon took over a live daemon's socket"
  | Some (Some path) ->
      Domain.join second;
      Fun.protect
        ~finally:(fun () ->
          send_shutdown socket;
          Domain.join first)
        (fun () ->
          Alcotest.(check string) "refused path" socket path;
          check_true "first daemon's socket kept" (Sys.file_exists socket);
          check_true "no temporary name left"
            (not (Sys.file_exists (socket ^ ".tmp")));
          Alcotest.(check string) "first daemon answers" "ok" (ping socket))

(* A socket file nobody listens on, as a killed daemon leaves behind, is
   taken over: the start proceeds, serves, and removes the file on the
   way out. *)
let test_daemon_takes_stale_socket () =
  let socket = socket_path "stale" in
  (try Sys.remove socket with Sys_error _ -> ());
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX socket);
  Unix.close dead;
  check_true "stale file present" (Sys.file_exists socket);
  let daemon =
    Domain.spawn (fun () ->
        Serve.Daemon.run (Serve.Daemon.default_config ~socket))
  in
  (* the stale file is there from the start, so wait for the daemon's
     answer rather than for the file *)
  let rec answer tries =
    match ping socket with
    | code -> code
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when tries > 0 ->
        Unix.sleepf 0.001;
        answer (tries - 1)
  in
  Fun.protect
    ~finally:(fun () ->
      send_shutdown socket;
      Domain.join daemon)
    (fun () -> Alcotest.(check string) "daemon answers" "ok" (answer 10_000));
  check_true "socket removed" (not (Sys.file_exists socket))

(* ---- framing: requests split and joined across writes ---------------- *)

(* A raw connection, so a test decides how its bytes are split into
   writes. Reads time out, so a daemon that never answers fails the test
   instead of hanging it. *)
let with_raw_connection socket f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ic = Unix.in_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.0;
      let write s =
        let rec go off =
          if off < String.length s then
            go (off + Unix.write_substring fd s off (String.length s - off))
        in
        go 0
      in
      f ~write ~read:(fun () -> In_channel.input_line ic))

let ping_line id = Printf.sprintf {|{"serve":1,"id":%d,"op":"ping"}|} id

let response_id line = Obs.Json.member "id" (Obs.Json.parse_exn line)

let expect_answer what ~id = function
  | Some line ->
      Alcotest.(check string) (what ^ ": code") "ok" (response_code line);
      check_true (what ^ ": id") (response_id line = Some (Obs.Json.Num (float_of_int id)))
  | None -> Alcotest.failf "%s: connection closed" what

(* One request in three writes (1 byte, 7 bytes, the rest), 20 ms apart
   so the daemon reads them separately: the line is framed whole, once. *)
let test_framing_split_request () =
  with_daemon "split" (fun socket ->
      with_raw_connection socket (fun ~write ~read ->
          let line = ping_line 5 ^ "\n" in
          write (String.sub line 0 1);
          Unix.sleepf 0.02;
          write (String.sub line 1 7);
          Unix.sleepf 0.02;
          write (String.sub line 8 (String.length line - 8));
          expect_answer "split request" ~id:5 (read ())))

(* Two requests in one write: two answers, in order. *)
let test_framing_two_in_one_write () =
  with_daemon "joined" (fun socket ->
      with_raw_connection socket (fun ~write ~read ->
          write (ping_line 1 ^ "\n" ^ ping_line 2 ^ "\n");
          expect_answer "first" ~id:1 (read ());
          expect_answer "second" ~id:2 (read ())))

let small_cap = 256

(* A complete line of [max_request_bytes + 1] bytes is answered
   [oversized_request], and the connection goes on. *)
let test_framing_oversized_line () =
  with_daemon ~max_request_bytes:small_cap "oversized-line" (fun socket ->
      with_raw_connection socket (fun ~write ~read ->
          let head = {|{"serve":1,"id":3,"op":"ping","pad":"|} in
          let line =
            head ^ String.make (small_cap + 1 - String.length head - 2) 'x' ^ {|"}|}
          in
          check_int "line length" (small_cap + 1) (String.length line);
          write (line ^ "\n" ^ ping_line 4 ^ "\n");
          (match read () with
          | Some r ->
              Alcotest.(check string) "oversized" "oversized_request" (response_code r)
          | None -> Alcotest.fail "connection closed on an oversized line");
          expect_answer "next request" ~id:4 (read ())))

(* More than [max_request_bytes + 2] bytes without a newline: the reader
   answers [oversized_request] and the daemon closes the connection; the
   next connection is served. *)
let test_framing_unterminated () =
  with_daemon ~max_request_bytes:small_cap "unterminated" (fun socket ->
      with_raw_connection socket (fun ~write ~read ->
          write (String.make (small_cap + 40) ' ');
          (match read () with
          | Some r ->
              Alcotest.(check string) "oversized" "oversized_request" (response_code r)
          | None -> Alcotest.fail "no answer to an unterminated line");
          check_true "connection closed" (read () = None));
      Alcotest.(check string) "next connection served" "ok" (ping socket))

(* ---- allocation pins: a fresh .bench [info] ------------------------------ *)

(* serve-mixed's fresh [info] request on its first payload, as its
   generator writes it. *)
let fresh_info_line =
  lazy
    (P.to_line
       (Obs.Json.Obj
          [
            ("serve", Obs.Json.Num 1.0);
            ("id", Obs.Json.Num 7.0);
            ("op", Obs.Json.Str "info");
            ("bench", Obs.Json.Str (Lazy.force payload_text.(0)));
          ]))

(* Parsing the line makes one copy of the payload (about 7.2k words) and
   little else: at most 12k words. Decoding by [peek] and a [Buffer]
   allocated 130k-152k. *)
let test_parse_allocation_pin () =
  let line = Lazy.force fresh_info_line in
  ignore (P.parse_line line);
  let parsed, words = allocated_words (fun () -> P.parse_line line) in
  (match parsed with
  | Ok (P.Single { job = P.Info { source = P.Bench text; _ }; _ }) ->
      Alcotest.(check string) "payload" (Lazy.force payload_text.(0)) text
  | _ -> Alcotest.fail "expected one info job");
  if words > 12_000.0 then
    Alcotest.failf "parse_line of a %d-byte info line allocated %.0f words (pin: 12,000)"
      (String.length line) words

(* The whole fresh [info] on a warm env (its library cached): parse, cache
   key, .bench read and answer in at most 150k words, against 424k before
   the connection buffer, the JSON decoder, the single-copy key and the
   scanner. *)
let test_fresh_info_allocation_pin () =
  let env = Serve.Jobs.create_env () in
  let warm = info (P.Bench (Lazy.force payload_text.(1))) in
  (match Serve.Jobs.execute env warm with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "warm-up info: %s" e.P.message);
  let line = Lazy.force fresh_info_line in
  let result, words =
    allocated_words (fun () ->
        match P.parse_line line with
        | Ok (P.Single { job; _ }) -> Serve.Jobs.execute env job
        | _ -> Alcotest.fail "expected one info job")
  in
  (match result with
  | Ok r -> check_true "a miss" (contains (P.to_line r) {|"netlist":"miss"|})
  | Error e -> Alcotest.failf "info: %s" e.P.message);
  if words > 150_000.0 then
    Alcotest.failf "fresh info allocated %.0f words (pin: 150,000)" words

let suite =
  [
    ( "protocol",
      [
        Alcotest.test_case "parse ping" `Quick test_parse_ping;
        Alcotest.test_case "optimize defaults" `Quick test_parse_optimize_defaults;
        Alcotest.test_case "stale domains ignored" `Quick test_parse_stale_domains;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "max_iterations range" `Quick
          test_parse_max_iterations;
        Alcotest.test_case "render response" `Quick test_render_response;
        Alcotest.test_case "non-finite numbers render as null" `Quick
          test_render_non_finite;
      ] );
    ( "cache",
      [
        Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
        Alcotest.test_case "failed build" `Quick test_cache_build_raises;
      ] );
    ("pool", [ Alcotest.test_case "order" `Quick test_pool_order ]);
    ( "jobs",
      [
        Alcotest.test_case "unknown circuit" `Quick test_job_unknown_circuit;
        Alcotest.test_case "stats says whether it counts" `Quick
          test_job_stats_counting;
        Alcotest.test_case "byte-identical across runs" `Slow
          test_job_determinism;
      ] );
    ( "analysis",
      [
        Alcotest.test_case "repeats give a fresh env's bytes" `Quick
          test_analysis_repeats_fresh_bytes;
        Alcotest.test_case "lanes race on a cold circuit" `Quick
          test_analysis_race;
        Alcotest.test_case "pristine netlist untouched" `Slow
          test_analysis_leaves_pristine;
        Alcotest.test_case "keyed by library" `Quick test_analysis_per_library;
      ] );
    ( "daemon",
      [
        Alcotest.test_case "malformed line" `Quick test_daemon_malformed_line;
        Alcotest.test_case "oversized batch" `Quick test_daemon_oversized_batch;
        Alcotest.test_case "mid-job disconnect" `Quick
          test_daemon_disconnect_mid_job;
        Alcotest.test_case "batch + shutdown" `Quick
          test_daemon_batch_and_shutdown;
        Alcotest.test_case "socket ready once visible" `Quick
          test_daemon_socket_ready;
        Alcotest.test_case "second daemon refused on a live socket" `Quick
          test_daemon_refuses_live_socket;
        Alcotest.test_case "stale socket taken over" `Quick
          test_daemon_takes_stale_socket;
        Alcotest.test_case "request split across writes" `Quick
          test_framing_split_request;
        Alcotest.test_case "two requests in one write" `Quick
          test_framing_two_in_one_write;
        Alcotest.test_case "oversized line, connection kept" `Quick
          test_framing_oversized_line;
        Alcotest.test_case "unterminated line closes the connection" `Quick
          test_framing_unterminated;
      ] );
    ( "allocation",
      [
        Alcotest.test_case "parse_line of a fresh info" `Quick
          test_parse_allocation_pin;
        Alcotest.test_case "fresh info on a warm env" `Quick
          test_fresh_info_allocation_pin;
      ] );
  ]

let () = Alcotest.run "serve" suite
