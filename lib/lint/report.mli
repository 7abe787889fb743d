(** Rendering and CI plumbing for lint results: pretty text, the JSON
    document the CLI emits (and can parse back), and exit codes. The
    diagnostic JSON schema lives here, written and read with {!Obs.Json}. *)

val pp : Diag.t list Fmt.t
(** One line per diagnostic plus a summary line. *)

val pp_summary : Diag.t list Fmt.t
(** e.g. ["2 errors, 1 warning"] or ["clean"]. *)

val exit_code : ?strict:bool -> Diag.t list -> int
(** 0 clean (or info-only), 1 when errors are present, 3 when only warnings
    are present and [strict] is set (default: warnings exit 0, like most
    linters). Never 2 — cmdliner uses 2 for CLI usage errors. *)

val to_json : (string * Diag.t list) list -> string
(** The CLI's [--format=json] document: named targets, each with its sorted
    diagnostics. A [Pdf_point] value that is NaN or infinite is written as
    [null], since JSON has no such numbers. *)

val of_json : string -> ((string * Diag.t list) list, string) result
(** Parse {!to_json} output back — the round-trip contract, with one
    exception: a [null] numeric value reads back as NaN, so an infinite
    [Pdf_point] value does not survive the round trip. *)
