(** Deterministic STA: arrivals, requireds, slack, and WNS-path tracing. *)

type t

val analyze : ?period:float -> Netlist.Circuit.t -> t
(** Full pass. Without [period], required times are anchored at the worst
    output arrival (so the critical path has zero slack). *)

val arrivals : Netlist.Circuit.t -> Electrical.t -> float array
(** Arrival times only, for callers that already have the electrical pass. *)

val downstream_delays : Netlist.Circuit.t -> Electrical.t -> float array
(** Per node, the longest mean-delay path from that node to any primary
    output (0 at the outputs themselves). *)

val arrival : t -> Netlist.Circuit.id -> float
val required : t -> Netlist.Circuit.id -> float
val slack : t -> Netlist.Circuit.id -> float
val electrical : t -> Electrical.t
val period : t -> float

val max_arrival : t -> float
(** Worst primary-output arrival (the circuit's deterministic delay). *)

val wns : t -> float
(** Worst negative slack over the outputs. *)

val critical_output : t -> Netlist.Circuit.id

val critical_path : t -> Netlist.Circuit.id list
(** Input-to-output WNS path, traced along arrival-setting arcs. *)

val critical_path_from : t -> Netlist.Circuit.id -> Netlist.Circuit.id list

val pp_path : t -> Netlist.Circuit.id list Fmt.t
