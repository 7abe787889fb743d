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

val create :
  ?mode:mode ->
  circuit:Netlist.Circuit.t ->
  model:Variation.Model.t ->
  objective:Objective.t ->
  full:Ssta.Fullssta.t ->
  unit ->
  t
(** One window serves a whole sizing run. It shares the FULLSSTA run's
    electrical state; trials mutate and restore it, so the [full]
    annotation must come from the same circuit object. Trials re-derive
    electrical state with a dirty-cone update clipped to the window, Global
    scoring drains every candidate cell in one shared wavefront over cached
    arc moments, and commits resync the cached arrivals incrementally
    ({!commit_incremental}). Every trial cost is bit-identical to a
    from-scratch recompute of the window, which test_incremental holds it
    to. Default mode: [Global]. *)

val refresh : t -> unit
(** Bring a persistent window up to date at the start of a new outer
    iteration (downstream slack stats + cached base arrivals), assuming the
    shared electrical state is already in sync. Equivalent to building a
    fresh window over the same annotation. *)

(* statflow: safe — tests check trials leave it unchanged *)
val cost : t -> Netlist.Cone.subcircuit -> float
(** Window cost as currently sized. *)

(* statflow: safe — prices one forced trial for the oracle tests *)
val cost_with_cell :
  lib:Cells.Library.t ->
  t ->
  Netlist.Cone.subcircuit ->
  Cells.Cell.t ->
  float * (Netlist.Circuit.id * Cells.Cell.t) list
(** Window cost with a trial cell installed on the pivot, together with the
    fanin co-sizing the trial would commit (side-effect-free: circuit and
    electrical state are restored). The trial also sizes the pivot's fanin
    drivers up per the logical-effort rule, letting compound moves cross
    the load-coordination barrier. *)

val capture_trial :
  t ->
  lib:Cells.Library.t ->
  Netlist.Cone.subcircuit ->
  Cells.Cell.t ->
  (unit -> 'a) ->
  'a
(** [capture_trial t ~lib sub cell k] runs one candidate's capture phase as
    {!best_size} runs it: install [cell] on the
    pivot with its fanin co-sizing, run the window-clipped logged
    electrical update ({!Sta.Electrical.update_trial}) and capture the
    perturbed arc moments of every dirty node. It then runs [k] while the
    trial is live (the dirty ids are readable through
    {!Sta.Electrical.dirty}) and restores the cells, the window's clip
    bitmap and the electrical state, also when [k] raises. For tests and
    benchmarks of the capture layer.

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

val best_size : t -> lib:Cells.Library.t -> Netlist.Cone.subcircuit -> verdict
(** Best cell over every available size of the pivot's function (ties keep
    the incumbent), with its induced co-sizing and window costs. *)

val commit_incremental : t -> resized:Netlist.Circuit.id list -> unit
(** Make a committed resize visible to later evaluations: an exact-stop
    electrical update from the [resized] gates and a change-wavefront
    resync of the cached base arrivals with a bit-equal stop — the state
    after it is bit-identical to a full electrical and arrival refresh.
    Does not touch the FULLSSTA annotation; the caller re-syncs it once per
    outer iteration via {!Ssta.Fullssta.update}. *)

val base_cost : t -> float
(** RV_O cost of the committed sizes, as maintained by commits. *)

val fassta_stats : t -> Ssta.Fassta.stats
(** Accumulated cutoff/blend counts across all evaluations. *)

(* statflow: safe — exported for its bit-equivalence test against Float.max *)
val max0 : float -> float
(** [Float.max v 0.0], bit for bit on every float (signed zeros, infinities
    and NaNs included), without its [sign_bit] C calls: the clamp the
    candidate drain's exact Clark max applies twice. Exposed for its
    equivalence test. *)
