(** Logic levels and circuit depth (level 0 = primary inputs). *)

val levels : Circuit.t -> int array
(** Level per node id. *)

val depth : Circuit.t -> int
(** Deepest level among primary outputs. *)

(* statflow: safe — levelization the netlist and regression tests pin *)
val by_level : Circuit.t -> Circuit.id list array
(** Nodes grouped by level. *)

(* statflow: safe — levelization the netlist tests pin *)
val output_depths : Circuit.t -> (Circuit.id * int) list
