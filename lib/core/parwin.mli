(** Domain-parallel WNSS-window evaluation (statserve tentpole, ROADMAP
    item 2): a shared-nothing replica pool that evaluates fixed-size chunks
    of the per-iteration window set concurrently, for the sizer's
    parallel-evaluate / serial-commit round loop.

    Each worker domain owns a full replica of the job — a
    {!Netlist.Circuit.copy}, its own {!Ssta.Fullssta.run} annotation and its
    own {!Window.t} — built inside the worker, so no mutable state is ever
    shared across domains. The master keeps replicas bit-identical to its
    own circuit by replaying every commit and every end-of-iteration
    refresh as an op stream ({!record_commit} / {!record_refresh}); because
    replica construction and every replayed step are deterministic, every
    verdict a replica returns is the verdict the serial engine would have
    computed at the same point. DESIGN.md §15 carries the full determinism
    argument.

    Work conservation: {!chunk_size} is a fixed constant, independent of
    the domain count, so the sequence of evaluated chunks (and hence the
    [window.trial.*] / [parwin.*] counter totals) depends only on the
    circuit and config — domain count only changes how each chunk is
    sliced across lanes. *)

type verdict = {
  gate : Netlist.Circuit.id;
  best : Cells.Cell.t;
  co_resizes : (Netlist.Circuit.id * Cells.Cell.t) list;
  best_cost : float;
  current_cost : float;
}
(** {!Window.verdict} plus the pivot it belongs to. *)

type params = {
  lib : Cells.Library.t;
  full_cfg : Ssta.Fullssta.config;
  mode : Window.mode;  (** must be [Global] for cross-replica validity *)
  area_weight : float;
  depth : int;  (** window TFI/TFO depth *)
  model : Variation.Model.t;
  objective : Objective.t;
  paranoid : bool;
}

type t

val chunk_size : int
(** Gates evaluated speculatively per round (fixed, domain-count
    independent — the work-conservation invariant). *)

val create : domains:int -> params -> Netlist.Circuit.t -> t
(** Spawn [domains - 1] worker domains (0 when [domains <= 1]: every chunk
    is then evaluated inline on the master window — same algorithm, no
    concurrency). Each worker copies [circuit] and builds its replica;
    [create] returns once every replica is ready, after which the master
    may freely mutate [circuit] again. Raises [Failure] if a worker dies
    during construction. *)

val eval_chunk :
  t -> master:Window.t -> circuit:Netlist.Circuit.t ->
  gates:Netlist.Circuit.id array -> pos:int -> len:int -> verdict array
(** Evaluate gates [pos, pos+len) of [gates]: the chunk is split into
    contiguous lane slices (master takes the first; workers one each),
    evaluated concurrently, and returned in gate order. Workers first
    replay any ops recorded since their previous round, so every verdict is
    computed against exactly the master's committed state. *)

val record_commit : t -> (Netlist.Circuit.id * Cells.Cell.t) list -> unit
(** Queue a committed move set for replica replay ([Circuit.set_cell] +
    {!Window.commit_incremental}), in commit order. *)

val record_refresh : t -> Netlist.Circuit.id list -> unit
(** Queue an end-of-iteration resync for replica replay
    ({!Ssta.Fullssta.update} with [refresh_electrical:false], then
    {!Window.refresh}) — the replica-side mirror of the sizer's
    per-iteration FULLSSTA update. *)

val count_discarded : int -> unit
(** Account speculative verdicts dropped by a serial-commit restart
    ([parwin.windows.discarded]). *)

val note_fallback : unit -> unit
(** Account a sizer run that requested parallel windows but fell back to
    the serial engine ([parwin.fallback]). *)

val shutdown : t -> unit
(** Stop and join every worker. Idempotent; safe after a worker crash. *)
