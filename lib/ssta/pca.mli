(** Correlation-aware SSTA via principal components (the paper's §4.3
    outer-loop extension): arrivals carry per-factor loadings, sums add them
    exactly, and maxes use correlation-aware Clark with tightness-blended
    loadings. *)

type arrival = {
  mean : float;
  loadings : float array;
  indep_var : float;
}

val total_var : arrival -> float
val total_sigma : arrival -> float
val to_moments : arrival -> Numerics.Clark.moments

type t = { components : int; arrivals : arrival array }

val loadings_of_structure : Variation.Correlated.t -> float array array
(** Principal-component loadings per region implied by the correlated
    structure (rows = components). *)

val run :
  ?model:Variation.Model.t ->
  ?structure:Variation.Correlated.t ->
  Netlist.Circuit.t ->
  t
(** Propagate correlated arrivals; gates are striped across the structure's
    regions by id, matching {!Monte_carlo}'s convention. *)

val arrival : t -> Netlist.Circuit.id -> arrival

val output_arrival : t -> Netlist.Circuit.t -> arrival
(** Correlation-aware max over the primary outputs. *)
