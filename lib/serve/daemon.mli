(** The resident sizing daemon: accepts sequential client connections on a
    Unix socket, reads newline-delimited [serve/1] requests, drains every
    complete line already buffered into one batch, executes the batch
    through the {!Pool} domain pool (responses keep request order), and
    writes one response line per request.

    Robustness contract (test/test_serve.ml): a malformed line, an
    oversized request or batch, or a job exception each produce a typed
    [serve/1] error response; a client that disconnects mid-job (SIGPIPE
    is ignored, [EPIPE] handled) only ends that connection. Only the
    [shutdown] op stops the daemon. *)

type config = {
  socket : string;  (** Unix socket path; any stale file is replaced *)
  domains : int;  (** pool lanes for batch execution (1 = inline) *)
  max_batch : int;  (** cap on an explicit ["batch"] op's job count *)
  max_request_bytes : int;  (** per-line byte cap *)
}

val default_config : socket:string -> config
(** domains 1, max_batch 64, max_request_bytes 8 MiB. *)

val run : config -> unit
(** Blocks until a [shutdown] op. The socket file appears at
    [config.socket] only once the daemon listens: it binds
    [config.socket ^ ".tmp"], listens, then renames that into place, so a
    client may connect as soon as the file exists. Both names are removed
    on the way out. *)
