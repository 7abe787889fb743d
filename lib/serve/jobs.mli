(** Serve job execution: resolve the library and circuit through the
    content-hashed caches, run the requested analysis/optimization on a
    private copy, and marshal the result to [serve/1] JSON. Jobs never
    mutate cached state — every job works on a {!Netlist.Circuit.copy} of
    the cached pristine netlist, so concurrent pool lanes share nothing but
    the (mutex-guarded) caches and the immutable libraries. *)

type env

val create_env : ?hash:(string -> string) -> unit -> env
(** [hash] is forwarded to both caches (test hook for the collision path). *)

val run : env -> Protocol.job -> (Obs.Json.t, Protocol.error) result
(** Execute one job (pure result: no timing metadata). [Shutdown] only
    produces its acknowledgement — the daemon owns the actual stop. Never
    raises: job exceptions come back as [Job_failed]. *)

val execute : env -> Protocol.job -> (Obs.Json.t, Protocol.error) result
(** {!run} plus an ["elapsed_s"] wall-clock field on success (service
    metadata, deliberately outside the deterministic result payload). *)

val sizing_digest : Netlist.Circuit.t -> string
(** Hex digest of the gate-order cell-name list — the byte-identity witness
    the determinism gates compare across repeated runs. *)
