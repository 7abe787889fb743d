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
  socket : string;
      (** Unix socket path; a stale file nobody listens on is replaced *)
  domains : int;  (** pool lanes for batch execution (1 = inline) *)
  max_batch : int;  (** cap on an explicit ["batch"] op's job count *)
  max_request_bytes : int;  (** per-line byte cap *)
}

val default_config : socket:string -> config
(** domains 1, max_batch 64, max_request_bytes 8 MiB. *)

exception Socket_in_use of string
(** Raised by {!run} when a daemon already answers at the socket path. *)

val run : config -> unit
(** Blocks until a [shutdown] op. It first connects to [config.socket]: if
    a daemon answers there, it raises {!Socket_in_use} and creates and
    removes nothing. A missing path, or a stale file nobody listens on, lets
    the start proceed. The socket file appears at [config.socket] only once
    the daemon listens: it binds [config.socket ^ ".tmp"], listens, then
    renames that into place, so a client may connect as soon as the file
    exists. On the way out it removes the [.tmp] name, and [config.socket]
    only if its own rename put the file there.

    The check and the rename are not atomic: two daemons started on one
    path at the same instant can both find it free, and the later rename
    wins the path. *)
