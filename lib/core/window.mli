(** Subcircuit (window) evaluation for the sizing inner loop (paper §4.5):
    FASSTA over a 2-level TFI/TFO window with frozen FULLSSTA boundary,
    scored by the worst per-output Cost = μ + α·σ. *)

type t

type mode =
  | Windowed  (** paper §4.5: FASSTA on the window with frozen FULLSSTA
          boundary, statistical-slack scoring of window outputs *)
  | Global
      (** trial electrical update stays window-local, but scoring runs a
          whole-circuit FASSTA pass against the real primary outputs *)

type engine =
  | Production
      (** the sizer's engine: one persistent window per run, clipped
          dirty-cone electrical trials, Global scoring of every candidate
          cell in one shared wavefront drain over cached arc moments, and
          incremental commits ({!commit_incremental}) *)
  | Reference
      (** the from-scratch oracle: each trial snapshots and recomputes
          every window member and re-propagates arrivals with
          [Clark.max_exact]; commits re-derive everything ({!commit}).
          Bit-identical costs and verdicts to [Production]; kept for the
          property tests and [paranoid] runs *)

val create :
  ?mode:mode ->
  ?engine:engine ->
  circuit:Netlist.Circuit.t ->
  model:Variation.Model.t ->
  objective:Objective.t ->
  full:Ssta.Fullssta.t ->
  unit ->
  t
(** Shares the FULLSSTA run's electrical state; trials mutate and restore
    it, so the [full] annotation must come from the same circuit object.
    Default mode: [Global]; default engine: [Reference]. Every trial cost,
    and hence every {!best_size} verdict, is bit-identical across the two
    engines. *)

val refresh : t -> unit
(** Bring a persistent window up to date at the start of a new outer
    iteration (downstream slack stats + cached base arrivals), assuming the
    shared electrical state is already in sync. Equivalent to building a
    fresh window over the same annotation. *)

val cost : t -> Netlist.Cone.subcircuit -> float
(** Window cost as currently sized. *)

val cost_with_cell :
  ?co_size:bool ->
  lib:Cells.Library.t ->
  t ->
  Netlist.Cone.subcircuit ->
  Cells.Cell.t ->
  float * (Netlist.Circuit.id * Cells.Cell.t) list
(** Window cost with a trial cell installed on the pivot, together with the
    fanin co-sizing the trial would commit (side-effect-free: circuit and
    electrical state are restored). [co_size] (default true) also sizes the
    pivot's fanin drivers up per the logical-effort rule, letting compound
    moves cross the load-coordination barrier. *)

val capture_trial :
  t ->
  lib:Cells.Library.t ->
  Netlist.Cone.subcircuit ->
  Cells.Cell.t ->
  (unit -> 'a) ->
  'a
(** [capture_trial t ~lib sub cell k] runs one candidate's capture phase as
    {!best_size} runs it on a [Production] window: install [cell] on the
    pivot with its fanin co-sizing, run the window-clipped logged
    electrical update ({!Sta.Electrical.update_trial}) and capture the
    perturbed arc moments of every dirty node. It then runs [k] while the
    trial is live (the dirty ids are readable through
    {!Sta.Electrical.dirty}) and restores the cells, the window's clip
    bitmap and the electrical state, also when [k] raises. For tests and
    benchmarks of the capture layer; raises [Invalid_argument] on a
    [Reference] window.

    Trials do not nest. [k] must not start another trial on [t]
    ({!capture_trial}, {!cost_with_cell}, {!best_size}): that call raises
    [Invalid_argument] before it changes anything, and the exception
    unwinds this trial like any other raised by [k]. Nor may [k] open a
    trial on the electrical state [t] shares (see
    {!Sta.Electrical.update_trial}). *)

type verdict = {
  best : Cells.Cell.t;
  co_resizes : (Netlist.Circuit.id * Cells.Cell.t) list;
  best_cost : float;
  current_cost : float;
}

val best_size :
  ?co_size:bool -> t -> lib:Cells.Library.t -> Netlist.Cone.subcircuit -> verdict
(** Best cell over every available size of the pivot's function (ties keep
    the incumbent), with its induced co-sizing and window costs. *)

val commit : t -> Netlist.Cone.subcircuit -> unit
(** Re-derive the window's electrical state after a committed resize so
    later evaluations in the same outer iteration see it. *)

val commit_incremental : t -> resized:Netlist.Circuit.id list -> unit
(** [Production] equivalent of {!commit} (raises [Invalid_argument] on a
    [Reference] window): exact-stop electrical update from
    the [resized] gates and a change-wavefront resync of the cached base
    arrivals with a bit-equal stop — the state after it is bit-identical to
    {!commit}'s full refresh. Does not touch the FULLSSTA annotation; the
    caller re-syncs it once per outer iteration via
    {!Ssta.Fullssta.update}. *)

val base_cost : t -> float
(** RV_O cost of the committed sizes, as maintained by commits. *)

val fassta_stats : t -> Ssta.Fassta.stats
(** Accumulated cutoff/blend counts across all evaluations. *)

val max0 : float -> float
(** [Float.max v 0.0], bit for bit on every float (signed zeros, infinities
    and NaNs included), without its [sign_bit] C calls: the clamp the
    candidate drain's exact Clark max applies twice. Exposed for its
    equivalence test. *)
