(** The [serve/1] wire protocol: newline-delimited JSON over a Unix socket
    (statserve tentpole). One request object per line; one response object
    per line, in request order. Parsed and encoded by {!Obs.Json}: its
    writer emits one line (responses never contain newlines) and writes
    NaN and infinite numbers as [null].

    Request: [{"serve":1, "id":..., "op":"...", ...params}] where [id] is
    echoed verbatim (any JSON value). Ops: [ping], [info], [analyze],
    [optimize], [table1], [stats], [batch] (an array of sub-requests under
    ["jobs"]), [shutdown]. Circuit sources: ["circuit": "<suite name>"] or
    ["bench": "<.bench file contents>"]; an optional ["library"] object
    ([tau], [strengths]) selects a generated library (default: the stock
    one). Responses: [{"serve":1, "id":..., "ok":true, "result":{...}}] or
    [{"serve":1, "id":..., "ok":false,
    "error":{"code":"...", "message":"..."}}]. *)

type error_code =
  | Parse_error  (** line is not a [serve/1] JSON object *)
  | Bad_request  (** well-formed JSON, invalid fields *)
  | Unknown_op
  | Unknown_circuit  (** suite name not found, or .bench text rejected *)
  | Oversized_batch  (** explicit batch larger than the daemon's max *)
  | Oversized_request  (** request line longer than the daemon's byte cap *)
  | Job_failed  (** job raised; the daemon survives and reports *)

type error = { code : error_code; message : string }

val err : error_code -> ('a, unit, string, error) format4 -> 'a
val code_string : error_code -> string

type source = Suite of string | Bench of string

type libspec = { tau : float option; strengths : float array option }
(** [{ tau = None; strengths = None }] selects the default library. *)

val default_libspec : libspec

val libspec_key : libspec -> string
(** Canonical cache-key text for a library request. *)

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
      (** ["counting"] (whether the observability gate is on), the
          ["counters"] block ([null] while it is off) and the cache sizes *)
  | Shutdown

type request = { id : Obs.Json.t; job : job }
type payload = Single of request | Batch of request list

val parse_line : string -> (payload, Obs.Json.t * error) result
(** Parse one request line. On error, the returned id is the request's
    [id] when it could be recovered ([Null] otherwise), so the error
    response still correlates. *)

type response = { id : Obs.Json.t; body : (Obs.Json.t, error) result }

val response_json : response -> Obs.Json.t

val render_response : response -> string
(** One line, no trailing newline. *)

val to_line : Obs.Json.t -> string
(** The same function as {!Obs.Json.to_string}; statbench's serve workload
    calls it under this name. *)
