(** Typed diagnostics — the shared currency of the lint subsystem and the
    structural validators: a stable code (e.g. [CIRC001]), a severity, a
    location (net/gate/cell/pdf-point/file:line), a message, and an optional
    fix hint. [Lint.Report] holds the JSON schema of a diagnostic. *)

module Severity : sig
  type t = Error | Warning | Info

  val compare : t -> t -> int
  (** Most severe first: [Error < Warning < Info]. *)

  val to_string : t -> string
  val of_string : string -> t option
  val pp : t Fmt.t
end

type location =
  | Circuit  (** the circuit as a whole *)
  | Net of string  (** a named net / node *)
  | Gate of string  (** a gate instance *)
  | Cell of string  (** a library cell (or cell family) *)
  | Lut of { cell : string; table : string }  (** one table of a cell *)
  | Pdf  (** a discrete pdf as a whole *)
  | Pdf_point of { index : int; value : float }  (** one pdf support point *)
  | Model  (** the variation model *)
  | File of { file : string; line : int }  (** source text position *)

type t = {
  code : string;  (** stable, e.g. "CIRC001" — never reused across rules *)
  severity : Severity.t;
  location : location;
  message : string;
  hint : string option;  (** optional actionable fix suggestion *)
}

val make :
  code:string ->
  severity:Severity.t ->
  loc:location ->
  ?hint:string ->
  string ->
  t

val errorf :
  code:string -> loc:location -> ?hint:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val warningf :
  code:string -> loc:location -> ?hint:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val infof :
  code:string -> loc:location -> ?hint:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val with_severity : Severity.t -> t -> t

val compare : t -> t -> int
(** Severity first, then code, then rendered location, then message. *)

val sort : t list -> t list

val max_severity : t list -> Severity.t option
(** [None] on the empty list. *)

val has_errors : t list -> bool
val count : Severity.t -> t list -> int

val pp_location : location Fmt.t
val pp : t Fmt.t
(** e.g. [error[CIRC004] gate "g7": dangling gate (hint: mark it as an
    output or remove it)]. *)

val to_string : t -> string
