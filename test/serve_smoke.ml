(* CI serve-smoke gate: drive a scripted multi-job session against a live
   statserve daemon with 2 pool lanes and fail unless the same optimize
   job, sent twice in one batch, comes back with byte-identical sizings on
   two quick circuits. This is the end-to-end flavor of test_serve's
   determinism test — socket, batching, pool and caches all in the loop. *)

let circuits = [ "alu1"; "alu2" ]
let fails = ref 0

let failf fmt =
  Printf.ksprintf
    (fun msg ->
      incr fails;
      prerr_endline ("serve-smoke: FAIL " ^ msg))
    fmt

let field_string name json =
  match
    Option.bind (Obs.Json.member "result" json) (Obs.Json.member name)
  with
  | Some (Obs.Json.Str s) -> Some s
  | _ -> None

(* A batch response carries its sub-responses under result.results. *)
let sub_responses json =
  match
    Option.bind (Obs.Json.member "result" json) (Obs.Json.member "results")
  with
  | Some (Obs.Json.Arr subs) -> subs
  | _ -> [ json ]

let () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve-smoke-%d.sock" (Unix.getpid ()))
  in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Daemon.run
          { (Serve.Daemon.default_config ~socket) with domains = 2 })
  in
  let rec wait tries =
    if Sys.file_exists socket then ()
    else if tries = 0 then begin
      prerr_endline "serve-smoke: daemon socket never appeared";
      exit 1
    end
    else begin
      Unix.sleepf 0.05;
      wait (tries - 1)
    end
  in
  wait 100;
  let job name copy =
    Printf.sprintf
      {|{"id":"%s-%s","op":"optimize","circuit":"%s","alpha":3.0,"max_iterations":4}|}
      name copy name
  in
  (* one pipelined session: an info per circuit (the cache path), then one
     batch holding every circuit's optimize job twice, fanned out across
     the pool lanes *)
  let lines =
    List.map
      (fun name ->
        Printf.sprintf {|{"serve":1,"id":"info-%s","op":"info","circuit":"%s"}|}
          name name)
      circuits
    @ [
        Printf.sprintf {|{"serve":1,"id":"twice","op":"batch","jobs":[%s]}|}
          (String.concat ","
             (List.concat_map (fun name -> [ job name "a"; job name "b" ])
                circuits));
      ]
  in
  let responses =
    List.concat_map
      (fun line -> sub_responses (Obs.Json.parse_exn line))
      (Serve.Client.session ~socket lines)
  in
  let digests = Hashtbl.create 8 in
  List.iter
    (fun json ->
      let id =
        match Obs.Json.member "id" json with
        | Some (Obs.Json.Str s) -> s
        | _ -> "?"
      in
      match Obs.Json.member "ok" json with
      | Some (Obs.Json.Bool true) ->
          Option.iter
            (fun d -> Hashtbl.replace digests id d)
            (field_string "sizing_digest" json)
      | _ -> failf "job %s errored: %s" id (Obs.Json.to_string json))
    responses;
  List.iter
    (fun name ->
      match
        ( Hashtbl.find_opt digests (Printf.sprintf "%s-a" name),
          Hashtbl.find_opt digests (Printf.sprintf "%s-b" name) )
      with
      | Some a, Some b when String.equal a b ->
          Printf.printf "serve-smoke: %-6s both copies agree (%s)\n" name a
      | Some a, Some b -> failf "%s sizings diverge: %s vs %s" name a b
      | _ -> failf "%s: missing optimize responses" name)
    circuits;
  (match
     Serve.Client.session ~socket [ {|{"serve":1,"id":0,"op":"shutdown"}|} ]
   with
  | [ _ ] -> ()
  | _ -> failf "shutdown not acknowledged");
  Domain.join daemon;
  if !fails > 0 then begin
    Printf.eprintf "serve-smoke: %d failure(s)\n" !fails;
    exit 1
  end;
  print_endline "serve-smoke: PASS"
