(* EXP001 fixture: five exported values, one per case. *)

val named_elsewhere : int -> int
(** user.ml calls it: silent. *)

val own_only : int -> int
(** only shared.ml calls it: fires. *)

val nowhere : int -> int
(** nothing calls it: fires. *)

(* statflow: safe — kept for the fixture's pragma case *)
val kept : int -> int

(* statflow: safe — user.ml calls it, so this pragma suppresses nothing *)
val stale_target : int -> int
