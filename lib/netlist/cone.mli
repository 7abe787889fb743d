(** Transitive fanin/fanout cones and the bounded subcircuit window the
    sizing inner loop evaluates (paper §4.5). *)

(* statflow: safe — cone primitive the netlist tests pin *)
val transitive_fanin : Circuit.t -> Circuit.id -> depth:int -> Circuit.id list
(** Gates (primary inputs excluded) within [depth] fanin levels, ascending. *)

(* statflow: safe — cone primitive the netlist tests pin *)
val transitive_fanout : Circuit.t -> Circuit.id -> depth:int -> Circuit.id list

(* statflow: safe — cone primitive the netlist tests pin *)
val input_cone : Circuit.t -> Circuit.id -> Circuit.id list
(** Full-depth input cone including primary inputs, ascending ids. *)

type subcircuit = {
  pivot : Circuit.id;
  members : Circuit.id array;  (** window gates, topologically ordered *)
  boundary_inputs : Circuit.id list;
      (** nodes outside the window feeding it (their timing is frozen) *)
  window_outputs : Circuit.id list;
      (** members whose outputs are observed outside the window *)
}

val extract : Circuit.t -> pivot:Circuit.id -> depth:int -> subcircuit
(** Window of [depth] TFI and TFO levels around a gate. Raises if the pivot
    is a primary input. *)
