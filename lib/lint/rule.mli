(** The rule catalogue: one entry per stable diagnostic code, carrying the
    pack it belongs to, its default severity, and the invariant it protects.
    DESIGN.md's "Diagnostics & lint" table is generated from this data, and
    the test suite asserts every non-internal code has a trigger. *)

type pack =
  | Circuit_pack
  | Library_pack
  | Stat_pack
  | Bench_pack
  | Abs_pack
  | Par_pack
  | Flow_pack

type meta = {
  code : string;
  pack : pack;
  severity : Diag.Severity.t;  (** default; the registry can override *)
  title : string;
  protects : string;  (** the precondition the rule machine-checks *)
  internal : bool;
      (** true for corruption guards the public API cannot trigger *)
}

val all : meta list
(** Sorted by code; codes are never reused or renumbered. *)

val find : string -> meta option
val mem : string -> bool
