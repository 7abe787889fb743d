(** Electrical state of a sized circuit: loads, slews (worst-fanin
    propagation) and nominal per-arc delays from the library LUTs. Shared by
    the deterministic, statistical, and Monte-Carlo engines. *)

type config = { input_slew : float; input_arrival : float }

val default_config : config
(** 10 ps boundary slew, time-0 input arrivals. *)

type t = {
  config : config;
  load : float array;
  slew : float array;
  arc_delay : float array array;
  mutable wave : Netlist.Wavefront.t option;
      (** scratch queue for [update]; managed internally *)
  mutable scratch : float array;
      (** delay staging buffer for [update]; managed internally *)
}

val compute : ?config:config -> Netlist.Circuit.t -> t

val load : t -> Netlist.Circuit.id -> float
val slew : t -> Netlist.Circuit.id -> float

val arc_delays : t -> Netlist.Circuit.id -> float array
(** Nominal delay per fanin arc ([||] for primary inputs). *)

val gate_mean_delay : t -> Netlist.Circuit.id -> float

val recompute_nodes : t -> Netlist.Circuit.t -> Netlist.Circuit.id array -> unit
(** Recompute load/arc-delays/slew in place for a topologically-ordered node
    subset, reading the circuit's current cells (trial-resize support). *)

val recompute_all : t -> Netlist.Circuit.t -> unit
(** Full in-place refresh of loads, arc delays and slews. *)

val update :
  ?slew_tol:float ->
  ?within:(Netlist.Circuit.id -> bool) ->
  t ->
  Netlist.Circuit.t ->
  resized:Netlist.Circuit.id list ->
  Netlist.Circuit.id list
(** [update t circuit ~resized] refreshes only the cone a resize perturbs:
    loads at fanins of resized gates, then slews/arc delays through the
    affected fanout cone in topological order, stopping where the recomputed
    slew moves by at most [slew_tol] (default [0.0]: an exact stop, leaving
    the state bit-identical to {!recompute_all}). Nodes whose values
    survive keep their arc arrays physically intact — consumers may use
    pointer inequality as the dirty marker — while resized gates always get
    fresh arrays. [within] clips seeding and sweeping to a node subset,
    mirroring {!recompute_nodes} on a window. Returns the ids whose stored
    load, slew or arc delays changed (unordered, may contain duplicates). *)

type snapshot

val update_logged :
  ?slew_tol:float ->
  ?within:(Netlist.Circuit.id -> bool) ->
  t ->
  Netlist.Circuit.t ->
  resized:Netlist.Circuit.id list ->
  Netlist.Circuit.id list * snapshot
(** Like {!update}, additionally returning an undo log: [restore]ing it
    rewinds every touched node to its pre-update state (trial support). *)

val snapshot : t -> Netlist.Circuit.id array -> snapshot
val restore : t -> snapshot -> unit
