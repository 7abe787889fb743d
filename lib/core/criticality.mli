(** Statistical gate criticality: P(node on the critical path), computed by
    distributing tightness probabilities backwards from RV_O. *)

type t

val compute : ?model:Variation.Model.t -> Netlist.Circuit.t -> t

(* statflow: safe — the per-node value the criticality tests check *)
val criticality : t -> Netlist.Circuit.id -> float

(* statflow: safe — the per-gate ranking the criticality tests check *)
val ranking : t -> Netlist.Circuit.t -> (Netlist.Circuit.id * float) list
(** Gates, most critical first. *)

val pp : ?top:int -> Netlist.Circuit.t -> t Fmt.t
