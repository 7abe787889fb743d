(** FASSTA — moments-only statistical timing (the fast inner engine, paper
    §4.3): Clark max with quadratic erf and the 2.6 cutoff short-circuit. *)

type stats = { mutable cutoff_hits : int; mutable blended : int }
(** How often the (5)/(6) cutoff resolved a max without arithmetic — the
    paper observes it fires "in the vast majority of cases". *)

val make_stats : unit -> stats

val cutoff_fraction : stats -> float
(** Fraction of recorded max operations resolved by the cutoff. Returns [0.]
    (not nan) when no max operations were recorded at all — callers needing
    to distinguish "no data" from "never fired" can inspect the counters. *)

val arc_moments :
  Variation.Model.t ->
  Netlist.Circuit.t ->
  Sta.Electrical.t ->
  Netlist.Circuit.id ->
  int ->
  Numerics.Clark.moments
(** Delay moments of fanin arc [k] of a gate. *)

val max_arrivals :
  ?stats:stats -> Numerics.Clark.moments list -> Numerics.Clark.moments

val propagate :
  ?stats:stats ->
  model:Variation.Model.t ->
  circuit:Netlist.Circuit.t ->
  electrical:Sta.Electrical.t ->
  boundary:(Netlist.Circuit.id -> Numerics.Clark.moments) ->
  Netlist.Circuit.id array ->
  (Netlist.Circuit.id, Numerics.Clark.moments) Hashtbl.t
(** Propagate through a topologically-ordered node subset; [boundary]
    supplies arrivals for fanins outside the subset (and for primary
    inputs inside it). This is the subcircuit-evaluation primitive. *)

val propagate_into :
  ?stats:stats ->
  ?exact:bool ->
  model:Variation.Model.t ->
  circuit:Netlist.Circuit.t ->
  electrical:Sta.Electrical.t ->
  Numerics.Clark.moments array ->
  unit
(** Whole-circuit fast pass into a caller-owned scratch array (index = node
    id) — the allocation-light primitive behind global trial evaluation.
    [exact] (default false) replaces the quadratic-erf Clark max with the
    exact-erf one: the paper's quadratic approximation is built for 2-level
    windows, and its near-tie slope error compounds over whole circuits. *)

val run :
  ?stats:stats ->
  ?model:Variation.Model.t ->
  Netlist.Circuit.t ->
  Numerics.Clark.moments array
(** Whole-circuit fast pass: a fresh array filled by {!propagate_into}. *)

val output_moments :
  Netlist.Circuit.t -> Numerics.Clark.moments array -> Numerics.Clark.moments
(** Fast-max over the primary outputs (RV_O approximation). *)
