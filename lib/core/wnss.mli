(** Worst-negative-statistical-slack (WNSS) path tracing (paper §4.4):
    rank gate inputs by cutoff dominance or finite-difference variance
    sensitivity, and walk the dominant chain from RV_O to a primary input. *)

type config = { h_fraction : float; coupling : float }

val config : ?h_fraction:float -> coupling:float -> unit -> config
(** [h_fraction] defaults to 0.01 (the paper's "h of the order of 1%% of the
    mean"); [coupling] is the paper's c in Δσ = c·Δμ. *)

val of_model : Variation.Model.t -> config

val variance_sensitivity :
  config -> target:Numerics.Clark.moments -> other:Numerics.Clark.moments -> float
(** ∂Var(max(target, other))/∂μ_target by forward finite difference with the
    σ coupling. *)

type choice = First | Second

val dominant : config -> Numerics.Clark.moments -> Numerics.Clark.moments -> choice
(** Pairwise ranking: cutoff (5)/(6) picks the higher mean; otherwise the
    larger variance sensitivity wins. *)

val pick_dominant :
  config -> ('a * Numerics.Clark.moments) list -> 'a * Numerics.Clark.moments

val trace_generic :
  config ->
  contributions:
    (Netlist.Circuit.id -> (Netlist.Circuit.id * Numerics.Clark.moments) list) ->
  roots:(Netlist.Circuit.id * Numerics.Clark.moments) list ->
  Netlist.Circuit.id list
(** Trace over abstract contribution providers (used by the Fig. 3
    reproduction); returns the path output-first. *)

val trace :
  ?config:config ->
  model:Variation.Model.t ->
  Netlist.Circuit.t ->
  Ssta.Fullssta.t ->
  Netlist.Circuit.id list
(** WNSS path of an annotated circuit, dominant primary output first,
    ending at a primary input. *)

val trace_from_output :
  ?config:config ->
  model:Variation.Model.t ->
  Netlist.Circuit.t ->
  Ssta.Fullssta.t ->
  Netlist.Circuit.id ->
  Netlist.Circuit.id list
(** WNSS path anchored at one specific output. *)

val critical_cone :
  ?config:config ->
  model:Variation.Model.t ->
  Netlist.Circuit.t ->
  Ssta.Fullssta.t ->
  Netlist.Circuit.id list
(** The statistical critical cone: every node reachable from RV_O through
    fanins that are not cutoff-dominated (the inputs conditions (5)/(6) say
    still shape the variance), deduplicated, topologically ordered. *)

val trace_all_outputs :
  ?config:config ->
  model:Variation.Model.t ->
  Netlist.Circuit.t ->
  Ssta.Fullssta.t ->
  Netlist.Circuit.id list
(** Union of the per-output WNSS paths (the statistical-critical forest),
    deduplicated, topologically ordered. *)
