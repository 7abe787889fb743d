(** FULLSSTA — discrete-pdf statistical timing (the accurate outer engine,
    paper §4.2). Stores per-node pdfs and their moments for FASSTA. *)

type config = {
  samples : int;  (** pdf points, paper uses 10–15 (default 12) *)
  model : Variation.Model.t;
}

val default_config : config

type t

val run : ?config:config -> Netlist.Circuit.t -> t

exception Divergence of Diag.t
(** Raised (code STAT005) when paranoid mode catches the incremental state
    disagreeing with a from-scratch rebuild. *)

val update : ?paranoid:bool -> t -> Netlist.Circuit.id list
(** [update t] brings the live annotation back in sync after gates changed
    cells, once the caller has brought the shared electrical state
    ({!electrical}) up to date, say with {!Sta.Electrical.update}.
    Dirtiness is re-derived from replaced arc rows and changed drive
    strengths, and pdfs are re-propagated only through the dirty fanout
    cone (topological wavefront; per-arc arrival pdfs are cached and only
    dirty arcs recomputed). The sweep stops exactly where a recomputed pdf
    is bit-identical to the stored one, leaving the annotation bit-equal to
    a fresh {!run}. [paranoid] cross-checks the result against a scratch
    run and raises {!Divergence} on any mismatch. Returns the ids whose
    arrival pdfs changed. *)

val pdf : t -> Netlist.Circuit.id -> Numerics.Discrete_pdf.t
(** Arrival-time pdf at a node. *)

val moments : t -> Netlist.Circuit.id -> Numerics.Clark.moments
(** Stored (mean, variance) of the node's arrival — FASSTA's boundary data. *)

val config : t -> config
(** The settings the run was made under; {!update} keeps them. *)

val electrical : t -> Sta.Electrical.t

val output_rv : t -> Numerics.Discrete_pdf.t
(** RV_O = statistical max over all primary outputs (paper §2.1). *)

val output_moments : t -> Numerics.Clark.moments

val sigma_over_mean : t -> float
(** σ/μ of RV_O — Table 1's headline metric. *)

val yield_at : t -> period:float -> float
(** P(RV_O ≤ period). *)

val check : ?tol:float -> t -> Diag.t list
(** Post-run invariant self-check: every stored arrival pdf still sums to 1
    within [tol] (default 1e-6), has no negative point mass, and carries a
    non-negative stored variance. Findings (STAT001/STAT002) indicate engine
    defects rather than bad inputs. *)
