let log_src = Logs.Src.create "statsize.serve" ~doc:"statserve daemon"

module Log = (val Logs.src_log log_src)

let c_connections = Obs.Counters.make "serve.connections"
let c_requests = Obs.Counters.make "serve.requests"
let c_batches = Obs.Counters.make "serve.batches"
let c_errors = Obs.Counters.make "serve.request.errors"
let c_disconnects = Obs.Counters.make "serve.disconnects"

type config = {
  socket : string;
  domains : int;
  max_batch : int;
  max_request_bytes : int;
}

let default_config ~socket =
  {
    socket;
    domains = 1;
    max_batch = 64;
    max_request_bytes = 8 * 1024 * 1024;
  }

exception Disconnected

(* Line framing over the raw fd: [next_batch] blocks for at least one
   complete line, then drains whatever else already arrived (the batching
   window) without blocking. Returns [None] on EOF. *)
type reader = { fd : Unix.file_descr; buf : Buffer.t; max_line : int }

let split_lines reader =
  let s = Buffer.contents reader.buf in
  let lines = ref [] in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        lines := String.sub s !start (i - !start) :: !lines;
        start := i + 1
      end)
    s;
  Buffer.clear reader.buf;
  Buffer.add_substring reader.buf s !start (String.length s - !start);
  List.rev !lines

let readable_now fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [ _ ], _, _ -> true
  | _ -> false

let read_chunk reader =
  let bytes = Bytes.create 65536 in
  match Unix.read reader.fd bytes 0 (Bytes.length bytes) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes reader.buf bytes 0 n;
      true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

exception Line_too_long

let rec next_batch reader =
  match split_lines reader with
  | [] ->
      if Buffer.length reader.buf > reader.max_line then raise Line_too_long;
      if read_chunk reader then next_batch reader else None
  | lines ->
      (* drain everything already queued behind the first line(s) *)
      let rec drain lines =
        if readable_now reader.fd && read_chunk reader then
          drain (lines @ split_lines reader)
        else lines
      in
      Some (drain lines)

let write_line fd line =
  let payload = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length payload in
  let rec go off =
    if off < len then begin
      match Unix.write fd payload off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          Obs.Counters.bump c_disconnects;
          raise Disconnected
    end
  in
  go 0

(* One request line parses to an immediate error response, a single job, or
   an explicit batch of jobs. All jobs of a wire batch run through one
   [Pool.map]; responses regroup per line, in request order. *)
type parsed =
  | Failed of Protocol.response
  | One of Protocol.request
  | Many of Protocol.request list

let no_id body = { Protocol.id = Obs.Json.Null; body }

let parse config line =
  Obs.Counters.bump c_requests;
  if String.length line > config.max_request_bytes then
    Failed
      (no_id
         (Error
            (Protocol.err Protocol.Oversized_request
               "request line is %d bytes (cap %d)" (String.length line)
               config.max_request_bytes)))
  else
    match Protocol.parse_line line with
    | Error (id, e) -> Failed { Protocol.id; body = Error e }
    | Ok (Protocol.Single r) -> One r
    | Ok (Protocol.Batch rs) ->
        if List.length rs > config.max_batch then
          Failed
            (no_id
               (Error
                  (Protocol.err Protocol.Oversized_batch
                     "batch of %d jobs exceeds max_batch %d" (List.length rs)
                     config.max_batch)))
        else Many rs

let is_shutdown (r : Protocol.request) = r.job = Protocol.Shutdown

let requests_of = function Failed _ -> [] | One r -> [ r ] | Many rs -> rs

let serve_batch config env fd lines =
  Obs.Counters.bump c_batches;
  let parsed = List.map (parse config) lines in
  let tasks = List.concat_map requests_of parsed in
  let results =
    Pool.map ~domains:config.domains
      (List.map
         (fun (r : Protocol.request) () -> Jobs.execute env r.job)
         tasks)
  in
  List.iter
    (fun body -> if Result.is_error body then Obs.Counters.bump c_errors)
    results;
  let remaining = ref (List.combine tasks results) in
  let take () =
    match !remaining with
    | (r, body) :: rest ->
        remaining := rest;
        { Protocol.id = r.Protocol.id; body }
    | [] -> assert false
  in
  List.iter
    (fun p ->
      let response =
        match p with
        | Failed r -> r
        | One _ -> take ()
        | Many rs ->
            let subs = List.map (fun _ -> take ()) rs in
            no_id
              (Ok
                 (Obs.Json.Obj
                    [
                      ( "results",
                        Obs.Json.Arr (List.map Protocol.response_json subs) );
                    ]))
      in
      write_line fd (Protocol.render_response response))
    parsed;
  List.exists (fun p -> List.exists is_shutdown (requests_of p)) parsed

let serve_connection config env fd =
  Obs.Counters.bump c_connections;
  let reader =
    { fd; buf = Buffer.create 4096; max_line = config.max_request_bytes + 2 }
  in
  let rec loop () =
    match next_batch reader with
    | None -> false
    | Some lines ->
        if serve_batch config env fd lines then true else loop ()
  in
  match loop () with
  | stop -> stop
  | exception Disconnected ->
      Log.info (fun m -> m "client disconnected mid-session");
      false
  | exception Line_too_long ->
      Obs.Counters.bump c_errors;
      (try
         write_line fd
           (Protocol.render_response
              {
                Protocol.id = Obs.Json.Null;
                body =
                  Error
                    (Protocol.err Protocol.Oversized_request
                       "request line exceeds %d bytes" config.max_request_bytes);
              })
       with Disconnected -> ());
      false

exception Socket_in_use of string

(* Whether a daemon answers at [path]. ENOENT (no file) and ECONNREFUSED
   (a file nobody listens on, such as one a killed daemon left behind)
   both mean no daemon does. The probe connection closes at once, which a
   live daemon reads as an ordinary client that sent nothing. *)
let answers path =
  let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
          false)

let run config =
  if answers config.socket then raise (Socket_in_use config.socket);
  if Sys.os_type = "Unix" then
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let env = Jobs.create_env () in
  (* warm the default library before any worker domain can race the lazy *)
  ignore (Lazy.force Cells.Library.default);
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let tmp = config.socket ^ ".tmp" in
  let unlink path = try Unix.unlink path with Unix.Unix_error _ -> () in
  unlink tmp;
  (* the socket file is this daemon's to remove only once its own rename
     put it there: a start that fails earlier leaves the path alone *)
  let owns_socket = ref false in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      unlink tmp;
      if !owns_socket then unlink config.socket)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX tmp);
      Unix.listen sock 16;
      Unix.rename tmp config.socket;
      owns_socket := true;
      Log.info (fun m ->
          m "listening on %s (%d pool domains)" config.socket config.domains);
      let rec accept_loop () =
        let client, _ = Unix.accept sock in
        let stop =
          Fun.protect
            ~finally:(fun () ->
              try Unix.close client with Unix.Unix_error _ -> ())
            (fun () -> serve_connection config env client)
        in
        if not stop then accept_loop ()
      in
      accept_loop ())
