(** Electrical state of a sized circuit: loads, slews (worst-fanin
    propagation) and nominal per-arc delays from the library LUTs. Shared by
    the deterministic, statistical, and Monte-Carlo engines. *)

val input_slew : float
(** The slew every primary input drives: 10 ps. *)

val input_arrival : float
(** The arrival time of every primary input: 0. *)

type work
(** Preallocated scratch for {!update} and trials: the wavefront, the dirty
    buffer, the trial log and the per-node trial rows. *)

type t = {
  load : float array;
  slew : float array;
  arc_delay : float array array;
  mutable work : work option;  (** created on first update; managed internally *)
}

val compute : Netlist.Circuit.t -> t

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
  t -> Netlist.Circuit.t -> resized:Netlist.Circuit.id list -> Netlist.Circuit.id list
(** [update t circuit ~resized] refreshes only the cone a resize perturbs:
    loads at fanins of resized gates, then slews/arc delays through the
    affected fanout cone in topological order, stopping where the
    recomputed slew equals the stored one. The stop is exact, leaving the
    state bit-identical to {!recompute_all}. Nodes whose values survive
    keep their arc arrays physically intact — consumers may use pointer
    inequality as the dirty marker — while resized gates always get fresh
    arrays. Returns the ids whose stored load, slew or arc delays changed
    (unordered, may contain duplicates). Raises [Invalid_argument] while a
    trial is not rewound. *)

val update_trial :
  t ->
  Netlist.Circuit.t ->
  within:bool array ->
  resized:Netlist.Circuit.id array ->
  nresized:int ->
  unit
(** A logged {!update} seeded from the first [nresized] ids of [resized] and
    clipped to the nodes set in [within] (indexed by node id), mirroring
    {!recompute_nodes} on a window. It writes the same values {!update}
    would inside the clip, allocating nothing but the LUT queries' boxes
    and {!Netlist.Circuit.load}'s results: each touched node is logged into
    preallocated arrays before its first mutation, and new arc delays go
    into a per-node trial row, so no committed row is overwritten. Read
    the changed ids with {!dirty_count} and {!dirty}, then undo the trial
    with {!rewind} before the next update. Trials do not nest: the state
    holds one trial log, and {!rewind} undoes all of it, so a caller must
    not open a second trial while its own is live, nor rewind a trial it
    did not open. Raises [Invalid_argument], changing nothing, if [within]
    is shorter than the circuit or the previous trial was not rewound. *)

val dirty_count : t -> int
(** Number of ids the last {!update} or {!update_trial} recorded as changed. *)

val dirty : t -> int -> Netlist.Circuit.id
(** [dirty t i] is the [i]-th changed id, in write order ([i] below
    {!dirty_count}); an id may appear twice. *)

val rewind : t -> unit
(** Undo the last {!update_trial}: every touched node gets back its load,
    its slew and the very arc array it held before (physically equal).
    A no-op when no trial is open. *)

type snapshot

val snapshot : t -> Netlist.Circuit.id array -> snapshot
(** The listed nodes' loads, slews and arc rows, for {!restore} after a
    {!recompute_nodes} trial (the Reference window engine's). *)

val restore : t -> snapshot -> unit
