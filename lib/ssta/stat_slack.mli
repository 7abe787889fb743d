(** Statistical required times and slack — the moment-space mirror of the
    deterministic backward pass (statistical MIN over reader arcs), closing
    the loop on the paper's "worst negative statistical slack" vocabulary. *)

type t = {
  period : float;
  required : Numerics.Clark.moments option array;
  slack : Numerics.Clark.moments option array;
}

val compute :
  ?exact:bool ->
  ?required_at:(Netlist.Circuit.id -> float) ->
  model:Variation.Model.t ->
  circuit:Netlist.Circuit.t ->
  electrical:Sta.Electrical.t ->
  arrival:(Netlist.Circuit.id -> Numerics.Clark.moments) ->
  period:float ->
  unit ->
  t
(** Backward pass from the outputs at [period]. [exact] (default true)
    selects the exact-erf Clark min. *)

val of_fullssta :
  ?exact:bool ->
  ?required_at:(Netlist.Circuit.id -> float) ->
  model:Variation.Model.t ->
  period:float ->
  Fullssta.t ->
  Netlist.Circuit.t ->
  t
(** Convenience wrapper over a FULLSSTA annotation of the same circuit;
    [required_at] overrides the single period per output. *)

val of_sdc :
  ?exact:bool ->
  model:Variation.Model.t ->
  sdc:Sta.Sdc.t ->
  Fullssta.t ->
  Netlist.Circuit.t ->
  t
(** Constrained analysis from an SDC constraint set (period and per-output
    margins). *)

val required : t -> Netlist.Circuit.id -> Numerics.Clark.moments option
(** [None] when no path leads onward from the node. *)

val slack : t -> Netlist.Circuit.id -> Numerics.Clark.moments option

val worst_node :
  t -> alpha:float -> Netlist.Circuit.t -> (Netlist.Circuit.id * float) option
(** Node with the most negative pessimistic slack. *)

val meet_probability : t -> Netlist.Circuit.id -> float option
(** P(slack ≥ 0) under the normal approximation. *)
