(** Minimal [serve/1] client: connect to a daemon's Unix socket, pipeline
    request lines, read responses in order. *)

type t

val connect : socket:string -> t
(** Raises [Unix.Unix_error] if nothing listens on [socket]. *)

(* statflow: safe — test_serve sends malformed lines with it *)
val send_line : t -> string -> unit
(** Ship one request line (newline appended). Does not wait for the
    response — pipelining consecutive sends is how clients exercise the
    daemon's batching window. *)

val request : t -> string -> string
(** [send_line] + [recv_line], raising [Failure] on EOF. *)

val close : t -> unit

val with_connection : socket:string -> (t -> 'a) -> 'a

val session : socket:string -> string list -> string list
(** Pipeline all request lines, then collect exactly one response per line
    (one connection). *)
