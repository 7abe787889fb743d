(** Module-level call graph and guarded reachability over it.

    Nodes are [(module, top-level binding)] pairs; an edge exists wherever a
    binding's body mentions an identifier that resolves to another top-level
    binding (mention, not just application — a function passed higher-order
    is reachable too). Resolution is purely syntactic: for a qualified path
    the rightmost component naming a known source module wins, with library
    namespace prefixes ([Core.Sizer.optimize] → [Sizer.optimize]) falling
    away naturally. Unresolvable paths (stdlib, external libraries) are
    dropped — the FFI blind spot DESIGN.md §12 documents.

    Reachability starts from the calls made by the given entry bindings and
    propagates a guard status per reached node: {!Guarded_only} when every
    path to it goes through a guarded edge, {!Unguarded} otherwise — the
    improvement lattice is [unreached → Guarded_only → Unguarded], monotone,
    and one unguarded path always demotes. What makes an edge "guarded" is a
    parameter: statrace keys on [Mutex.protect] call sites ([c_guarded]),
    statflow on [Fun.protect]/[try] regions ([c_protected]). *)

type status = Guarded_only | Unguarded

type t

val build : Scan.file_facts list -> t

val toplevel : t -> module_:string -> value:string -> Scan.binding list
(** Top-level bindings named [value] in files compiling to [module_]
    (several files of the same name merge). *)

val resolve :
  t -> current_module:string -> string list -> (string * Scan.binding) list
(** Resolve a flattened identifier path to candidate [(module, binding)]
    targets; [[]] when the path leaves the analyzed source set. *)

val compute :
  ?guard_of:(Scan.call -> bool) ->
  ?through_values:bool ->
  t ->
  entries:(string * Scan.binding) list ->
  unit
(** Run the guarded-reachability fixpoint from the given [(module, binding)]
    entry points. [guard_of] (default [c_guarded]) decides which call edges
    count as guarded. [through_values] (default [false]) also assigns
    statuses to — and continues through — non-function bindings: statrace
    leaves it off (a value binding's body ran once at module init, before
    any spawn), statflow turns it on (a closure table runs its payloads when
    the hot caller invokes them). Idempotent per [t]; one [t] holds one
    fixpoint, so analyzers with different parameters must each {!build}
    their own. *)

val status : t -> module_:string -> value:string -> status option
(** [None] = not reachable from any entry. *)

(* statflow: safe — test_srcmodel compares it to a reference model *)
val statuses : t -> ((string * string) * status) list
(** All reached [(module, binding)] nodes with their statuses, sorted — for
    alloc-summary reporting and tests. *)
