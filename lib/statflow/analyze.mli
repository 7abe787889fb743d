(** statflow: interprocedural allocation, exception-safety, and determinism
    analysis for the hot paths. Built on [Srcmodel] (parsing, fact
    extraction, call graph, allowlist); this module owns only the flow
    rules and the two reachability closures they are gated by.

    Rule pack (catalogue defaults in [Lint.Rule]):
    - {b FLOW000} (Error) — unparseable source file.
    - {b HOT001} (Warning) — tuple/record/variant/cons/array-literal
      construction inside a loop or iterator callback, in code reachable
      from a hot entry.
    - {b HOT002} (Warning) — closure allocation, same gating.
    - {b HOT003} (Warning) — stdlib builder ([Array.make], [List.map], …)
      allocating its result, same gating.
    - {b HOT004} (Info) — a hot-reachable function whose tail is float
      arithmetic: its result boxes at every out-of-inline call site
      (heuristic). Silent for an [[@inline]] binding that no other module
      calls; under dune's [-opaque] dev profile a call from another module
      is never inlined, and the hint says so.
    - {b EXC001} (Error) — a [raise]/[failwith] after a resource
      acquisition ([open_in], [Unix.openfile], [Mutex.lock]) in the same
      binding, outside any [Fun.protect]/[try] region: the exceptional path
      leaks the handle or deadlocks the lock. Local property — fires
      everywhere, not just on hot paths.
    - {b EXC002} (Warning) — a partial stdlib call ([List.hd],
      [Option.get], [Hashtbl.find]) in hot-reachable code.
    - {b DET001} (Error) — [Hashtbl.fold]/[iter]/[to_seq] whose result is
      not immediately sorted, in code reachable from a deterministic-result
      entry: iteration order is unspecified and seed-dependent.
    - {b DET002} (Error) — [Sys.time]/[Unix.gettimeofday] in
      result-producing code.
    - {b DET003} (Error) — ambient [Random.*] (not [Random.State]) in
      result-producing code.
    - {b FLOW007} (Warning) — a [(* statflow: safe — reason *)] pragma or
      allow-file entry that suppresses nothing.

    Noise discipline and soundness caveats (DESIGN.md §13): HOT fires only
    on allocations in iteration contexts — one allocation per call
    amortizes; one per element is GC pressure. Reachability propagates
    through value bindings too ([Callgraph.compute ~through_values:true]),
    so closure tables like [Iscas_like.suite] do not hide their payloads. *)

module Source = Srcmodel.Source
module Scan = Srcmodel.Scan
module Callgraph = Srcmodel.Callgraph

val tool : Srcmodel.Tool.t
(** [{name = "statflow"; parse_code = "FLOW000"; stale_code = "FLOW007"}] *)

val default_hot_entries : string list
(** The kernels claimed allocation-lean:
    [Window.trial_cost]/[vec_costs]/[commit_incremental],
    [Electrical.update], [Fullssta.update], [Discrete_pdf.sum]/[max2],
    [Lut.query], and the Monte Carlo trial loop [Monte_carlo.run]. *)

val default_det_entries : string list
(** Result-producing roots statserve's serial≡parallel gate cares about:
    [Table1.run], engine [run]/[compute]/[update] (Monte Carlo's
    [Monte_carlo.run] included), [Sizer.optimize]. *)

type allow_entry = Srcmodel.Allow.entry

type config = {
  entries : string list;
      (** non-empty: replaces {e both} default entry sets; names match as
          [Module.binding], bare [binding], or bare [Module] *)
  allow : allow_entry list;
}

val default_config : config

val parse_allow_file : string -> (allow_entry list, string) result
(** [Srcmodel.Allow.parse]. *)

type counts = {
  constructs : int;
  closures : int;
  builders : int;
  in_loop : int;  (** of the above, how many sit in iteration contexts *)
  bindings : int;  (** reachable bindings folded into this summary *)
}

type result = {
  files_scanned : int;
  hot_entries : (string * string * int) list;
      (** [(Module.binding, file, line)] of each resolved hot entry *)
  det_entries : (string * string * int) list;
  summaries : (string * counts) list;
      (** per hot entry: transitive allocation-site summary over everything
          reachable from it — the static complement of a [Gc.minor_words]
          measurement around one call *)
  findings : Diag.t list;  (** sorted; allowlist already applied *)
  suppressed : int;
}

val run : ?config:config -> Srcmodel.Source.t list -> result

val run_dirs : ?config:config -> string list -> result
(** [Srcmodel.Source.load_dirs] + [run]; FLOW000 parse failures join the
    findings. *)

val count_by_code : Diag.t list -> (string * int) list
(** Sorted per-code histogram, for reports and BENCH_statflow.json. *)
