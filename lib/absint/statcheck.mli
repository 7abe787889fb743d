(** The statcheck certifier: one forward abstract-interpretation pass over
    the levelized circuit producing, per node,

    - certified arrival-time enclosures (mean interval, variance bound,
      and — in distribution-free mode — hard support bounds),
    - an accumulated fast-vs-exact Clark error budget ({!Domain.v}), and
    - a realization envelope: hard bounds on the arrival under any
      truncated variation draw |z| ≤ [z_span] per arc (the Monte-Carlo
      property tests sample inside it).

    The [scope] axis picks what the enclosures quantify over:
    {!Current_sizing} reads the circuit's present cells (tight — this is
    what the lint cross-checks use), while {!All_sizings} hulls every arc
    over the library's whole drive ladder (via {!Numerics.Lut.range} corner
    sweeps), so the result is sound under any sizing the optimizer may ever
    visit. *)

type scope = Current_sizing | All_sizings

type config = {
  scope : scope;
  semantics : Domain.semantics;
  z_span : float;  (** envelope half-width in sigmas per arc (default 4) *)
  samples : int;
      (** FULLSSTA pdf budget the distribution-free mode certifies
          (default 12, matching [Ssta.Fullssta.default_config]) *)
  model : Variation.Model.t;
}

val default_config : config
(** Current sizing, Clark-normal semantics, z_span 4, 12 samples, default
    model. *)

type t

val run : ?config:config -> lib:Cells.Library.t -> Netlist.Circuit.t -> t
(** One forward pass; O(nodes × arcs) domain operations (plus a LUT corner
    sweep per arc and ladder cell under [All_sizings]). *)

val config : t -> config
val circuit : t -> Netlist.Circuit.t

val state : t -> Netlist.Circuit.id -> Domain.v
val mean_interval : t -> Netlist.Circuit.id -> Numerics.Interval.t
val var_hi : t -> Netlist.Circuit.id -> float
val err_mean : t -> Netlist.Circuit.id -> float

val envelope : t -> Netlist.Circuit.id -> Numerics.Interval.t
(** Hard realization bounds at a node for truncated draws |z| ≤ z_span. *)

val rv_state : t -> Domain.v
(** Abstract state of RV_O (the statistical max over primary outputs),
    obtained by folding the same max transfer over the output states. *)

val rv_envelope : t -> Numerics.Interval.t

val output_budget : t -> float
(** Certified circuit-wide FASSTA mean-error budget: the worst accumulated
    [err_mean] across primary outputs (and RV_O). *)

val pp_summary : t Fmt.t
(** One-paragraph text report: RV_O enclosure, worst budgets, node count. *)
