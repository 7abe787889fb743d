(* CI serve-smoke gate: drive a scripted multi-job session against a live
   statserve daemon with 2 pool lanes and fail unless the same optimize
   job, sent twice in one batch, comes back with byte-identical sizings on
   two quick circuits, and the same analyze job, sent twice in that batch
   and once more in a later line, comes back with the same result each
   time, the later one answered from the netlist's cached analysis. This
   is the end-to-end flavor of test_serve's determinism and analysis-slot
   tests — socket, batching, pool and caches all in the loop. *)

let circuits = [ "alu1"; "alu2" ]
let fails = ref 0

let failf fmt =
  Printf.ksprintf
    (fun msg ->
      incr fails;
      prerr_endline ("serve-smoke: FAIL " ^ msg))
    fmt

let result json = Option.value ~default:Obs.Json.Null (Obs.Json.member "result" json)

(* An analyze result's bytes without the wall-clock field. *)
let analysis_text json =
  match result json with
  | Obs.Json.Obj fields ->
      Obs.Json.to_string
        (Obs.Json.Obj (List.filter (fun (k, _) -> k <> "elapsed_s") fields))
  | other -> Obs.Json.to_string other

let field_string name json =
  match Obs.Json.member name (result json) with
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
  (* counters count only while the sink is on; the stats line reads them *)
  Obs.Sink.enable ();
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve-smoke-%d.sock" (Unix.getpid ()))
  in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Daemon.run
          { (Serve.Daemon.default_config ~socket) with domains = 2 })
  in
  (* the daemon renames its socket into place once it listens *)
  let rec wait tries =
    if not (Sys.file_exists socket) then begin
      if tries = 0 then begin
        prerr_endline "serve-smoke: daemon socket never appeared";
        exit 1
      end;
      Unix.sleepf 0.05;
      wait (tries - 1)
    end
  in
  wait 100;
  let optimize name copy =
    Printf.sprintf
      {|{"id":"%s-%s","op":"optimize","circuit":"%s","alpha":3.0,"max_iterations":4}|}
      name copy name
  and analyze ?(serve = "") name copy =
    Printf.sprintf {|{%s"id":"%s-analyze-%s","op":"analyze","circuit":"%s"}|}
      serve name copy name
  in
  (* one pipelined session: an info per circuit (the cache path), then one
     batch holding every circuit's optimize and analyze jobs twice, fanned
     out across the pool lanes; once it is answered, a second session with
     one more analyze line per circuit *)
  let lines =
    List.map
      (fun name ->
        Printf.sprintf {|{"serve":1,"id":"info-%s","op":"info","circuit":"%s"}|}
          name name)
      circuits
    @ [
        Printf.sprintf {|{"serve":1,"id":"twice","op":"batch","jobs":[%s]}|}
          (String.concat ","
             (List.concat_map
                (fun name ->
                  [
                    optimize name "a";
                    optimize name "b";
                    analyze name "a";
                    analyze name "b";
                  ])
                circuits));
      ]
  and later = List.map (fun name -> analyze ~serve:{|"serve":1,|} name "c") circuits in
  let first = Serve.Client.session ~socket lines in
  let second = Serve.Client.session ~socket later in
  let responses =
    List.concat_map
      (fun line -> sub_responses (Obs.Json.parse_exn line))
      (first @ second)
  in
  let answers = Hashtbl.create 16 in
  List.iter
    (fun json ->
      let id =
        match Obs.Json.member "id" json with
        | Some (Obs.Json.Str s) -> s
        | _ -> "?"
      in
      match Obs.Json.member "ok" json with
      | Some (Obs.Json.Bool true) -> Hashtbl.replace answers id json
      | _ -> failf "job %s errored: %s" id (Obs.Json.to_string json))
    responses;
  let answer fmt = Printf.ksprintf (Hashtbl.find_opt answers) fmt in
  List.iter
    (fun name ->
      match
        ( Option.bind (answer "%s-a" name) (field_string "sizing_digest"),
          Option.bind (answer "%s-b" name) (field_string "sizing_digest") )
      with
      | Some a, Some b when String.equal a b ->
          Printf.printf "serve-smoke: %-6s both copies agree (%s)\n" name a
      | Some a, Some b -> failf "%s sizings diverge: %s vs %s" name a b
      | _ -> failf "%s: missing optimize responses" name)
    circuits;
  List.iter
    (fun name ->
      match
        List.map
          (fun copy ->
            Option.map analysis_text (answer "%s-analyze-%s" name copy))
          [ "a"; "b"; "c" ]
      with
      | [ Some a; Some b; Some c ] when String.equal a b && String.equal a c ->
          Printf.printf "serve-smoke: %-6s three analyses agree\n" name
      | [ Some a; Some b; Some c ] ->
          failf "%s analyses diverge: %s / %s / %s" name a b c
      | _ -> failf "%s: missing analyze responses" name)
    circuits;
  (* each circuit's later analyze finds the analysis its batch published *)
  (match
     Serve.Client.session ~socket [ {|{"serve":1,"id":"stats","op":"stats"}|} ]
   with
  | [ line ] -> (
      match
        Option.bind
          (Obs.Json.member "counters" (result (Obs.Json.parse_exn line)))
          (Obs.Json.member "serve.cache.analysis.hits")
      with
      | Some (Obs.Json.Num hits) when hits >= float_of_int (List.length circuits)
        ->
          Printf.printf "serve-smoke: %g analysis hits\n" hits
      | _ -> failf "stats: fewer than one analysis hit per circuit: %s" line)
  | _ -> failf "stats not answered");
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
