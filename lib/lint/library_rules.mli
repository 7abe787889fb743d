(** The library rule pack (LIB001–LIB006): per-cell NLDM table sanity
    (monotonicity, sign), electrical parameters, and per-function ladder
    completeness/area monotonicity. LIB007 (runtime extrapolation) lives in
    {!Extrapolation}. *)

val check : Cells.Library.t -> Diag.t list
(** Unsorted, at catalogue default severities. *)

(* statflow: safe — the per-cell rules the lint triggers fire one at a time *)
val check_cell : Cells.Cell.t -> Diag.t list
(** The per-cell subset (LIB001–LIB004) for a single cell. *)
