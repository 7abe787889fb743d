(** The project's one JSON codec: a reader and a compact writer, hand-rolled
    because the toolchain ships no JSON library. serve/1 requests and
    responses, the lint and certification reports, the statobs exports and
    the bench records are all read and written here. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string * int
(** [Bad (message, byte_offset)]. *)

val parse_exn : string -> t
(** Parse a complete JSON document; raises {!Bad} on malformed input or
    trailing garbage. *)

val parse_result : string -> (t, string * int) result

val member : string -> t -> t option
(** [member k (Obj ...)] looks up key [k]; [None] on missing key or
    non-object. *)

val to_string : t -> string
(** Compact single-line encoding, no trailing newline. Strings escape the
    double quote, the backslash, newline, carriage return and tab by name
    and every other byte below 0x20 as a lower-case [\u00xx]; bytes at or
    above 0x80 are written raw. Integer-valued numbers below 1e15 in
    magnitude print as [%.0f], other finite numbers as [%.17g] (which reads
    back bit for bit), and NaN and both infinities as [null]. Object
    members keep their order. *)
