(** Yield-driven sizing: escalate α until the circuit meets a period with
    the requested parametric yield (the paper's §2.2 yield application). *)

type step = { alpha : float; yield_ : float; sigma : float; area : float }

type result = {
  target : float;
  period : float;
  achieved : float;
  met : bool;
  steps : step list;
}

val optimize :
  lib:Cells.Library.t ->
  Netlist.Circuit.t ->
  period:float ->
  target:float ->
  result
(** Mutates the circuit in place. Climbs the ladder α ∈ {1, 3, 6, 9, 15},
    each step the default sizer at that α followed by area recovery, and
    stops at the first step meeting [target]. Raises unless
    0 < target < 1. *)

val pp : result Fmt.t
