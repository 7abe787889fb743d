(** Serve job execution: resolve the library and circuit through the
    content-keyed caches, run the requested analysis/optimization, and
    marshal the result to [serve/1] JSON.

    One netlist cache entry holds the pristine netlist and its analysis
    slot. Jobs never mutate the pristine netlist: [info] reads it, and
    [optimize] and [table1] size a {!Netlist.Circuit.copy}. [analyze]
    answers from the slot; the first request for a netlist (under its
    library) sizes a copy, runs FULLSSTA and publishes the result with an
    atomic compare-and-set, and later requests only price the stored
    moments at their own α. Concurrent pool lanes thus share the
    (mutex-guarded) caches, the read-only pristine netlists, the analysis
    slots and the immutable libraries. *)

type env

val create_env : unit -> env

val run : env -> Protocol.job -> (Obs.Json.t, Protocol.error) result
(** Execute one job (pure result: no timing metadata). [Shutdown] only
    produces its acknowledgement — the daemon owns the actual stop. Never
    raises: job exceptions come back as [Job_failed]. *)

val execute : env -> Protocol.job -> (Obs.Json.t, Protocol.error) result
(** {!run} plus an ["elapsed_s"] wall-clock field on success (service
    metadata, deliberately outside the deterministic result payload). *)

(* statflow: safe — lets test_serve check no job changes a cached netlist *)
val cached_netlist :
  env -> library:Protocol.libspec -> Protocol.source -> Netlist.Circuit.t option
(** The pristine netlist the cache holds for [source] under [library], if
    any. No job may change it; tests check that through this. *)

val sizing_digest : Netlist.Circuit.t -> string
(** Hex digest of the gate-order cell-name list — the byte-identity witness
    the determinism gates compare across repeated runs. *)
