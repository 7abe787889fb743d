(** Per-file fact extraction: one syntactic pass over a parsed source that
    records, for every top-level binding, the mutable-state operations it
    performs, the calls it makes, the [Domain.spawn] regions it opens — and,
    for statflow, the heap allocations, raise sites, resource acquisitions,
    partial stdlib calls, and impure (order/clock/PRNG) operations in it.

    The pass is context-sensitive in several dimensions the later phases
    consume:

    - {b spawn depth} — how many [Domain.spawn (fun () -> ...)] closures
      enclose the operation. Depth [> 0] means the code runs on a spawned
      domain whenever the spawn site executes.
    - {b guard} — whether the operation sits lexically inside a
      [Mutex.protect _ (fun () -> ...)] thunk. Guarded writes are safe; a
      call made under guard marks its edge, so callees reached {e only}
      through guarded edges inherit protection (the [record_locked]
      convention in [lib/obs/span.ml]).
    - {b protect} — whether the operation sits inside a [Fun.protect] thunk
      (or a [try] body, whose raises are caught locally). A raise under
      protection cannot skip a release; statflow's EXC001 keys on this.
    - {b sorted} — whether the expression's value flows into a
      [List.sort]-family sink (directly, via [|>], or via [@@]). An
      order-sensitive [Hashtbl.fold] whose result is immediately sorted is
      deterministic again; statflow's DET001 keys on this.
    - {b loop} — inside a for/while body or a non-top [fun] literal (an
      iterator callback): an allocation here may execute many times per
      call of the enclosing binding.
    - {b scope origin} — where a written location was allocated:
      fresh mutable allocation in this binding (safe unless it crosses a
      spawn boundary), [Domain.DLS.get] result (domain-local by
      construction), an ordinary pattern binding (per-invocation view;
      aliasing is out of scope, see DESIGN.md §12), a free variable
      (resolved against the module's top level later), or a qualified path
      (another module's state). *)

type mutable_kind = Ref | Field | Array_slot | Bytes_slot | Container

type origin =
  | Local of { kind : mutable_kind option; spawn_depth : int }
      (** let-bound to a syntactically fresh mutable allocation *)
  | Dls  (** let-bound to [Domain.DLS.get _] *)
  | Binding  (** pattern/parameter binding — per-invocation, alias-blind *)

type target =
  | Var of string * origin  (** ident resolved in the local scope *)
  | Free of string  (** unqualified ident not in scope: module top level *)
  | Path of string list  (** qualified [M.x] *)
  | Complex  (** write through a non-ident base; not tracked *)

type write = {
  w_kind : mutable_kind;
  w_target : target;
  w_line : int;
  w_spawn : int;  (** spawn depth at the write site *)
  w_guarded : bool;
}

type call = {
  c_path : string list;  (** flattened longident as written *)
  c_spawn : int;
  c_guarded : bool;
  c_protected : bool;  (** made inside a [Fun.protect] thunk or [try] body *)
}

type atomic_op = {
  a_side : [ `Get | `Set ];
  a_target : string;  (** syntactic rendering of the atomic location *)
  a_line : int;
  a_spawn : int;
  a_guarded : bool;
}

type dls_new = { d_line : int; d_spawn : int }

type alloc_kind =
  | Construct of string
      (** tuple / record / variant payload / list cons / array literal; the
          string names the constructor for the message *)
  | Closure  (** a [fun] literal in expression position *)
  | Builder of string
      (** a stdlib allocator by name, e.g. ["Array.make"] or ["List.map"] *)

type alloc = {
  h_kind : alloc_kind;
  h_line : int;
  h_loop : bool;  (** may execute many times per call (loop / callback) *)
}

type raise_site = {
  r_fn : string;  (** [raise], [failwith], [invalid_arg], ... *)
  r_line : int;
  r_protected : bool;  (** inside [Fun.protect] / [try]: cannot skip release *)
}

type acquire = {
  q_what : string;  (** [open_in], [Unix.openfile], [Mutex.lock], ... *)
  q_line : int;
}

type partial_call = {
  p_fn : string;  (** [List.hd], [Option.get], [Hashtbl.find], ... *)
  p_line : int;
}

type impure_kind =
  | Hash_order of { sorted : bool }
      (** [Hashtbl.fold]/[iter]/[to_seq]; [sorted] when the value flows
          straight into a sort sink *)
  | Clock  (** [Sys.time], [Unix.gettimeofday], ... *)
  | Rand  (** ambient [Random.*] (not [Random.State]) *)

type impure = { i_kind : impure_kind; i_what : string; i_line : int }

type binding = {
  b_name : string;  (** path inside the module, e.g. ["run"] or ["Sub.run"] *)
  b_line : int;
  b_is_function : bool;
      (** syntactically a [fun]: statrace propagates reachability only
          through these — a non-function binding's body runs once, at module
          init, on the loading domain. statflow also propagates through
          value bindings (closure tables run when invoked, not when built) *)
  b_alloc : mutable_kind option;
      (** for top-level [let x = ref ...] and friends: the module-global
          mutable state free-variable writes resolve to *)
  b_spawns : int list;  (** lines of [Domain.spawn] sites in this binding *)
  b_writes : write list;
  b_calls : call list;
  b_atomics : atomic_op list;
  b_dls_news : dls_new list;
  b_allocs : alloc list;
  b_raises : raise_site list;
  b_acquires : acquire list;
  b_partials : partial_call list;
  b_impures : impure list;
  b_float_ret : bool;
      (** tail expression is float arithmetic: the result boxes at every
          out-of-inline call site (heuristic, Info-grade) *)
  b_inline : bool;
      (** the binding carries [[@inline]] ([let[@inline]], [[@@inline]] or
          [[@inline always]]). Without flambda and under dune's [-opaque]
          dev profile, the request takes effect only at call sites in the
          same module *)
}

type file_facts = { source : Source.t; bindings : binding list }

val file : Source.t -> file_facts
