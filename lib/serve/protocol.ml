(* serve/1 request parsing + response rendering. *)

type error_code =
  | Parse_error
  | Bad_request
  | Unknown_op
  | Unknown_circuit
  | Oversized_batch
  | Oversized_request
  | Job_failed

type error = { code : error_code; message : string }

let err code fmt = Printf.ksprintf (fun message -> { code; message }) fmt

let code_string = function
  | Parse_error -> "parse_error"
  | Bad_request -> "bad_request"
  | Unknown_op -> "unknown_op"
  | Unknown_circuit -> "unknown_circuit"
  | Oversized_batch -> "oversized_batch"
  | Oversized_request -> "oversized_request"
  | Job_failed -> "job_failed"

type source = Suite of string | Bench of string

type libspec = { tau : float option; strengths : float array option }

let default_libspec = { tau = None; strengths = None }

let libspec_key spec =
  match spec with
  | { tau = None; strengths = None } -> "default"
  | _ ->
      let b = Buffer.create 64 in
      (match spec.tau with
      | None -> Buffer.add_string b "tau=default"
      | Some t -> Buffer.add_string b (Printf.sprintf "tau=%h" t));
      (match spec.strengths with
      | None -> Buffer.add_string b ";strengths=default"
      | Some s ->
          Buffer.add_string b ";strengths=";
          Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h," x)) s);
      Buffer.contents b

type job =
  | Ping
  | Info of { source : source; library : libspec }
  | Analyze of { source : source; library : libspec; alpha : float }
  | Optimize of {
      source : source;
      library : libspec;
      alpha : float;
      max_iterations : int option;
      return_cells : bool;
    }
  | Table1 of {
      source : source;
      library : libspec;
      alphas : float list;
      max_iterations : int option;
    }
  | Stats
  | Shutdown

type request = { id : Obs.Json.t; job : job }
type payload = Single of request | Batch of request list

let to_line = Obs.Json.to_string

(* ---- request parsing ---- *)

let ( let* ) = Result.bind

let member_or k default json =
  Option.value ~default (Obs.Json.member k json)

let as_float what = function
  | Obs.Json.Num f -> Ok f
  | _ -> Error (err Bad_request "%s must be a number" what)

(* A count such as [max_iterations]: a double below 2^53 holds every
   integer exactly, so [int_of_float] neither wraps nor saturates it. *)
let as_count what = function
  | Obs.Json.Num f when Float.is_integer f && f >= 0.0 && f < 0x1p53 ->
      Ok (int_of_float f)
  | _ -> Error (err Bad_request "%s must be a non-negative integer below 2^53" what)

let as_bool what = function
  | Obs.Json.Bool x -> Ok x
  | _ -> Error (err Bad_request "%s must be a boolean" what)

let opt_field k conv json =
  match Obs.Json.member k json with
  | None | Some Obs.Json.Null -> Ok None
  | Some v ->
      let* x = conv k v in
      Ok (Some x)

let field_or k conv default json =
  let* v = opt_field k conv json in
  Ok (Option.value ~default v)

let parse_source json =
  match (Obs.Json.member "circuit" json, Obs.Json.member "bench" json) with
  | Some (Obs.Json.Str name), None -> Ok (Suite name)
  | None, Some (Obs.Json.Str text) -> Ok (Bench text)
  | None, None ->
      Error (err Bad_request "missing circuit source: \"circuit\" or \"bench\"")
  | Some _, Some _ ->
      Error (err Bad_request "give exactly one of \"circuit\" and \"bench\"")
  | _ -> Error (err Bad_request "\"circuit\"/\"bench\" must be strings")

let parse_libspec json =
  match Obs.Json.member "library" json with
  | None | Some Obs.Json.Null -> Ok default_libspec
  | Some (Obs.Json.Obj _ as spec) ->
      let* tau = opt_field "tau" as_float spec in
      let* strengths =
        match Obs.Json.member "strengths" spec with
        | None | Some Obs.Json.Null -> Ok None
        | Some (Obs.Json.Arr xs) ->
            let* fs =
              List.fold_right
                (fun x acc ->
                  let* acc = acc in
                  let* f = as_float "library.strengths element" x in
                  Ok (f :: acc))
                xs (Ok [])
            in
            Ok (Some (Array.of_list fs))
        | Some _ ->
            Error (err Bad_request "library.strengths must be an array")
      in
      Ok { tau; strengths }
  | Some _ -> Error (err Bad_request "\"library\" must be an object")

let parse_alphas json =
  match Obs.Json.member "alphas" json with
  | None | Some Obs.Json.Null -> Ok [ 3.0; 9.0 ]
  | Some (Obs.Json.Arr xs) when xs <> [] ->
      List.fold_right
        (fun x acc ->
          let* acc = acc in
          let* f = as_float "alphas element" x in
          Ok (f :: acc))
        xs (Ok [])
  | Some _ -> Error (err Bad_request "\"alphas\" must be a non-empty array")

let rec parse_job json =
  let* op =
    match Obs.Json.member "op" json with
    | Some (Obs.Json.Str op) -> Ok op
    | Some _ -> Error (err Bad_request "\"op\" must be a string")
    | None -> Error (err Bad_request "missing \"op\"")
  in
  match op with
  | "ping" -> Ok (`Job Ping)
  | "stats" -> Ok (`Job Stats)
  | "shutdown" -> Ok (`Job Shutdown)
  | "info" ->
      let* source = parse_source json in
      let* library = parse_libspec json in
      Ok (`Job (Info { source; library }))
  | "analyze" ->
      let* source = parse_source json in
      let* library = parse_libspec json in
      let* alpha = field_or "alpha" as_float 3.0 json in
      Ok (`Job (Analyze { source; library; alpha }))
  | "optimize" ->
      let* source = parse_source json in
      let* library = parse_libspec json in
      let* alpha = field_or "alpha" as_float 3.0 json in
      let* max_iterations = opt_field "max_iterations" as_count json in
      let* return_cells = field_or "return_cells" as_bool false json in
      Ok
        (`Job
          (Optimize { source; library; alpha; max_iterations; return_cells }))
  | "table1" ->
      let* source = parse_source json in
      let* library = parse_libspec json in
      let* alphas = parse_alphas json in
      let* max_iterations = opt_field "max_iterations" as_count json in
      Ok (`Job (Table1 { source; library; alphas; max_iterations }))
  | "batch" -> (
      match Obs.Json.member "jobs" json with
      | Some (Obs.Json.Arr jobs) ->
          let* requests =
            List.fold_right
              (fun sub acc ->
                let* acc = acc in
                let* r = parse_request sub in
                Ok (r :: acc))
              jobs (Ok [])
          in
          Ok (`Batch requests)
      | _ -> Error (err Bad_request "\"batch\" needs a \"jobs\" array"))
  | op -> Error (err Unknown_op "unknown op %S" op)

and parse_request json =
  match json with
  | Obs.Json.Obj _ -> (
      let id = member_or "id" Obs.Json.Null json in
      match parse_job json with
      | Ok (`Job job) -> Ok { id; job }
      | Ok (`Batch _) ->
          Error (err Bad_request "\"batch\" cannot nest inside a batch")
      | Error e -> Error e)
  | _ -> Error (err Bad_request "request must be a JSON object")

let parse_line line =
  match Obs.Json.parse_result line with
  | Error (msg, off) ->
      Error (Obs.Json.Null, err Parse_error "byte %d: %s" off msg)
  | Ok json -> (
      let id = member_or "id" Obs.Json.Null json in
      match json with
      | Obs.Json.Obj _ -> (
          match member_or "serve" Obs.Json.Null json with
          | Obs.Json.Num 1.0 -> (
              match parse_job json with
              | Ok (`Job job) -> Ok (Single { id; job })
              | Ok (`Batch requests) -> Ok (Batch requests)
              | Error e -> Error (id, e))
          | _ ->
              Error (id, err Parse_error "not a serve/1 request (\"serve\":1)"))
      | _ -> Error (id, err Parse_error "request must be a JSON object"))

(* ---- responses ---- *)

type response = { id : Obs.Json.t; body : (Obs.Json.t, error) result }

let response_json { id; body } =
  let fields =
    match body with
    | Ok result ->
        [
          ("serve", Obs.Json.Num 1.0);
          ("id", id);
          ("ok", Obs.Json.Bool true);
          ("result", result);
        ]
    | Error e ->
        [
          ("serve", Obs.Json.Num 1.0);
          ("id", id);
          ("ok", Obs.Json.Bool false);
          ( "error",
            Obs.Json.Obj
              [
                ("code", Obs.Json.Str (code_string e.code));
                ("message", Obs.Json.Str e.message);
              ] );
        ]
  in
  Obs.Json.Obj fields

let render_response r = Obs.Json.to_string (response_json r)
