(** The shared allowlist pass: source pragmas (this tool's namespace), then
    allow-file entries, then staleness of the allowlist itself. *)

type result = {
  kept : Diag.t list;  (** findings that survived suppression *)
  suppressed : int;
  stale : Diag.t list;
      (** one [tool.stale_code] finding per pragma or allow entry that
          suppressed nothing *)
}

val apply :
  tool:Tool.t ->
  sources:Source.t list ->
  allow:Allow.entry list ->
  Diag.t list ->
  result
(** Findings without a file location pass through untouched. A pragma
    suppresses a finding on its own line or the line below; an allow entry
    matches by code, path suffix, and line (0 = whole file). *)

val finding :
  code:string ->
  file:string ->
  line:int ->
  ?hint:string ->
  ('a, Format.formatter, unit, Diag.t) format4 ->
  'a
(** Diagnostic constructor with catalogue severity and file/line location. *)
