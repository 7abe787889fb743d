(** The statistical rule pack (STAT001–STAT004): preconditions under which
    the SSTA approximations (discrete-pdf algebra, Clark's max, the normal
    model) are actually valid. *)

val check_model : Variation.Model.t -> Diag.t list
(** STAT002 (negative sigma components / non-positive tau), STAT003
    (sigma/mu outside (0, 0.5] at minimum size), STAT004 (all-zero sigma
    degenerates Clark's a-term). *)

(* statflow: safe — the pdf point checks the lint triggers fire directly *)
val check_points : ?tol:float -> (float * float) list -> Diag.t list
(** Raw (value, mass) pdf points: STAT002 for negative masses (located at
    the offending point), STAT001 when total mass deviates from 1 beyond
    [tol] (default 1e-6). *)
