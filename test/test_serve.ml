(* statserve: protocol units, cache/pool behavior, job determinism, and the
   daemon robustness contract (malformed lines, oversized batches, mid-job
   disconnects, cache-hash collisions all come back as typed serve/1 errors
   instead of killing the daemon). *)

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

let test_cache_collision () =
  (* a constant hash makes every distinct content collide *)
  let cache = Serve.Cache.create ~hash:(fun _ -> "same") () in
  (match Serve.Cache.find_or_build cache ~content:"a" ~build:(fun () -> 1) with
  | Serve.Cache.Miss 1 -> ()
  | _ -> Alcotest.fail "expected Miss 1");
  match Serve.Cache.find_or_build cache ~content:"b" ~build:(fun () -> 2) with
  | Serve.Cache.Collision _ -> ()
  | _ -> Alcotest.fail "expected Collision"

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

let run_job ?hash job =
  let env = Serve.Jobs.create_env ?hash () in
  Serve.Jobs.run env job

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
       (P.Info { source = P.Bench "not a bench file"; library = P.default_libspec }))

let test_job_cache_collision () =
  (* constant hash: the second distinct circuit collides in the netlist
     cache and must surface as a typed error, not a wrong answer *)
  let env = Serve.Jobs.create_env ~hash:(fun _ -> "same") () in
  let info name =
    Serve.Jobs.run env
      (P.Info { source = P.Suite name; library = P.default_libspec })
  in
  (match info "alu1" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first job failed: %s" e.P.message);
  job_err "collision" "cache_collision" (info "alu2")

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

(* ---- daemon over a real socket ---------------------------------------- *)

let socket_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "statserve-test-%s-%d.sock" name (Unix.getpid ()))

(* Run a daemon in its own domain with a connection cap so the test always
   terminates, hand the socket to [f], then join. *)
let with_daemon ?hash ?(connections = 1) name f =
  let socket = socket_path name in
  let config =
    {
      (Serve.Daemon.default_config ~socket) with
      max_connections = Some connections;
      max_batch = 4;
      hash;
    }
  in
  let daemon = Domain.spawn (fun () -> Serve.Daemon.run config) in
  let rec wait tries =
    if Sys.file_exists socket then ()
    else if tries = 0 then Alcotest.fail "daemon socket never appeared"
    else begin
      Unix.sleepf 0.05;
      wait (tries - 1)
    end
  in
  wait 100;
  Fun.protect ~finally:(fun () -> Domain.join daemon) (fun () -> f socket)

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
  with_daemon "disconnect" ~connections:2 (fun socket ->
      (* first connection: fire a real job and hang up without reading *)
      let c = Serve.Client.connect ~socket in
      Serve.Client.send_line c
        {|{"serve":1,"id":1,"op":"optimize","circuit":"alu1","max_iterations":2}|};
      Serve.Client.close c;
      (* the daemon must survive the EPIPE and serve the next connection *)
      match Serve.Client.session ~socket [ {|{"serve":1,"id":2,"op":"ping"}|} ] with
      | [ r ] -> Alcotest.(check string) "daemon survived" "ok" (response_code r)
      | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs))

let test_daemon_cache_collision () =
  with_daemon "collision" ~hash:(fun _ -> "same") (fun socket ->
      match
        Serve.Client.session ~socket
          [
            {|{"serve":1,"id":1,"op":"info","circuit":"alu1"}|};
            {|{"serve":1,"id":2,"op":"info","circuit":"alu2"}|};
            {|{"serve":1,"id":3,"op":"ping"}|};
          ]
      with
      | [ a; b; c ] ->
          Alcotest.(check string) "first fills the cache" "ok" (response_code a);
          Alcotest.(check string) "second collides" "cache_collision"
            (response_code b);
          Alcotest.(check string) "daemon alive" "ok" (response_code c)
      | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs))

let test_daemon_batch_and_shutdown () =
  with_daemon "batch" ~connections:99 (fun socket ->
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
      (* shutdown must stop the daemon well before the connection cap *)
      match
        Serve.Client.session ~socket [ {|{"serve":1,"id":0,"op":"shutdown"}|} ]
      with
      | [ r ] -> Alcotest.(check string) "shutdown acked" "ok" (response_code r)
      | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs))

let suite =
  [
    ( "protocol",
      [
        Alcotest.test_case "parse ping" `Quick test_parse_ping;
        Alcotest.test_case "optimize defaults" `Quick test_parse_optimize_defaults;
        Alcotest.test_case "stale domains ignored" `Quick test_parse_stale_domains;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "render response" `Quick test_render_response;
        Alcotest.test_case "non-finite numbers render as null" `Quick
          test_render_non_finite;
      ] );
    ( "cache",
      [
        Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
        Alcotest.test_case "collision" `Quick test_cache_collision;
        Alcotest.test_case "failed build" `Quick test_cache_build_raises;
      ] );
    ("pool", [ Alcotest.test_case "order" `Quick test_pool_order ]);
    ( "jobs",
      [
        Alcotest.test_case "unknown circuit" `Quick test_job_unknown_circuit;
        Alcotest.test_case "cache collision" `Quick test_job_cache_collision;
        Alcotest.test_case "byte-identical across runs" `Slow
          test_job_determinism;
      ] );
    ( "daemon",
      [
        Alcotest.test_case "malformed line" `Quick test_daemon_malformed_line;
        Alcotest.test_case "oversized batch" `Quick test_daemon_oversized_batch;
        Alcotest.test_case "mid-job disconnect" `Quick
          test_daemon_disconnect_mid_job;
        Alcotest.test_case "cache collision" `Quick test_daemon_cache_collision;
        Alcotest.test_case "batch + shutdown" `Quick
          test_daemon_batch_and_shutdown;
      ] );
  ]

let () = Alcotest.run "serve" suite
