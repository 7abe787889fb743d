(* statflow classification: allocation, exception-safety, and determinism
   findings over the srcmodel facts, gated by two reachability closures —
   one rooted at the declared hot entries (the sizer/SSTA kernels), one at
   the deterministic-result entries (everything whose output must be
   bit-identical serial vs parallel).

   Noise discipline: HOT001–HOT003 fire only for allocations in iteration
   contexts (loop bodies, iterator callbacks) — a single allocation per call
   amortizes, an allocation per element is what turns the inner loop into
   GC pressure. HOT004 is Info-grade: the boxed-float-return heuristic
   cannot see what the inliner removes. It does know when an [[@inline]]
   binding's callers all sit in its own module, where the request takes
   effect, and stays silent then; dune's dev profile compiles with
   [-opaque], so a caller in another module always receives a boxed
   result. DESIGN.md §13 spells out the model. *)

module Source = Srcmodel.Source
module Scan = Srcmodel.Scan
module Callgraph = Srcmodel.Callgraph

let tool =
  {
    Srcmodel.Tool.name = "statflow";
    parse_code = "FLOW000";
    stale_code = "FLOW007";
  }

(* The kernels claimed allocation-lean, plus the query layers under them:
   the sizer's window evaluation and commit, the incremental engines, the
   FULLSSTA arc and node kernels, the LUT, and the Monte Carlo trial loop.
   Overridable with --entry. *)
let default_hot_entries =
  [
    "Window.vec_costs";
    "Window.commit_incremental";
    "Electrical.update";
    "Fullssta.update";
    "Discrete_pdf.sum";
    "Discrete_pdf.max2";
    "Lut.query";
    "Monte_carlo.run";
  ]

(* Everything whose result statserve gates on being bit-identical across
   serial and parallel runs — the sizing/SSTA pipeline and the serve layer
   that carries results over the wire (protocol encode/decode, the job
   pool, job execution). *)
let default_det_entries =
  [
    "Table1.run";
    "Fullssta.run";
    "Fassta.run";
    "Monte_carlo.run";
    "Electrical.compute";
    "Electrical.update";
    "Fullssta.update";
    "Sizer.optimize";
    "Pool.map";
    "Protocol.parse_line";
    "Protocol.render_response";
    "Jobs.run";
  ]

type allow_entry = Srcmodel.Allow.entry

type config = {
  entries : string list;
      (* non-empty: replaces BOTH default entry sets (hot and det) *)
  allow : allow_entry list;
}

let default_config = { entries = []; allow = [] }

type counts = {
  constructs : int;
  closures : int;
  builders : int;
  in_loop : int;
  bindings : int;
}

let zero_counts =
  { constructs = 0; closures = 0; builders = 0; in_loop = 0; bindings = 0 }

type result = {
  files_scanned : int;
  hot_entries : (string * string * int) list;
  det_entries : (string * string * int) list;
  summaries : (string * counts) list;
  findings : Diag.t list;
  suppressed : int;
}

let finding = Srcmodel.Suppress.finding
let parse_allow_file = Srcmodel.Allow.parse

let entry_selected names ~module_ (b : Scan.binding) =
  List.exists
    (fun e ->
      e = module_ ^ "." ^ b.Scan.b_name || e = b.Scan.b_name || e = module_)
    names

(* ---- per-binding classification ------------------------------------------ *)

let alloc_findings ~file ~module_ (b : Scan.binding) =
  List.filter_map
    (fun (a : Scan.alloc) ->
      if not a.Scan.h_loop then None
      else
        match a.Scan.h_kind with
        | Scan.Construct what ->
            Some
              (finding ~code:"HOT001" ~file ~line:a.Scan.h_line
                 ~hint:
                   "hoist the value out of the loop, reuse preallocated \
                    scratch, or annotate with (* statflow: safe — reason *)"
                 "%s constructed inside a loop on a hot path (%s.%s)" what
                 module_ b.Scan.b_name)
        | Scan.Closure ->
            Some
              (finding ~code:"HOT002" ~file ~line:a.Scan.h_line
                 ~hint:
                   "hoist the closure out of the loop or pass its captures \
                    as arguments"
                 "closure allocated inside a loop on a hot path (%s.%s)"
                 module_ b.Scan.b_name)
        | Scan.Builder fn ->
            Some
              (finding ~code:"HOT003" ~file ~line:a.Scan.h_line
                 ~hint:
                   "allocate the buffer once outside the loop and fill it in \
                    place"
                 "%s allocates its result inside a loop on a hot path (%s.%s)"
                 fn module_ b.Scan.b_name))
    b.Scan.b_allocs

(* The (module, binding) pairs that some other module calls. *)
let called_across_modules graph facts =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (ff : Scan.file_facts) ->
      let m = ff.Scan.source.Source.module_name in
      List.iter
        (fun (b : Scan.binding) ->
          List.iter
            (fun (c : Scan.call) ->
              List.iter
                (fun (m', (b' : Scan.binding)) ->
                  if m' <> m then Hashtbl.replace tbl (m', b'.Scan.b_name) ())
                (Callgraph.resolve graph ~current_module:m c.Scan.c_path))
            b.Scan.b_calls)
        ff.Scan.bindings)
    facts;
  fun ~module_ (b : Scan.binding) -> Hashtbl.mem tbl (module_, b.Scan.b_name)

(* HOT004's verdict on a float-returning hot binding: [None] when it is
   [[@inline]] and only its own module calls it (every call site inlines),
   else the hint for the finding. *)
let hot004_hint ~cross (b : Scan.binding) =
  match (b.Scan.b_inline, cross) with
  | true, false -> None
  | true, true ->
      Some
        "[@inline] reaches only callers in this module: dune's dev profile \
         compiles with -opaque, so calls from other modules are never \
         inlined and box the result; give the calling loop's module its own \
         inlined copy"
  | false, true ->
      Some
        "[@inline] would not help the callers in other modules (-opaque: \
         no cross-module inlining); copy the kernel into the calling loop's \
         module, or pass unboxed float records at the call boundary"
  | false, false ->
      Some
        "consider [@inline] on the definition (every caller is in this \
         module, where it takes effect) or unboxed float records at the \
         call boundary"

let classify ~hot_graph ~det_graph ~called_across ~file ~module_ ~is_hot
    ~is_det (b : Scan.binding) =
  let hot_here =
    is_hot || Callgraph.status hot_graph ~module_ ~value:b.Scan.b_name <> None
  in
  let det_here =
    is_det || Callgraph.status det_graph ~module_ ~value:b.Scan.b_name <> None
  in
  let out = ref [] in
  let emit d = out := d :: !out in
  if hot_here then begin
    List.iter emit (alloc_findings ~file ~module_ b);
    (if b.Scan.b_float_ret then
       match hot004_hint ~cross:(called_across ~module_ b) b with
       | None -> ()
       | Some hint ->
           emit
             (finding ~code:"HOT004" ~file ~line:b.Scan.b_line ~hint
                "%s.%s returns freshly computed float arithmetic: result \
                 boxes at every out-of-inline call"
                module_ b.Scan.b_name));
    List.iter
      (fun (p : Scan.partial_call) ->
        emit
          (finding ~code:"EXC002" ~file ~line:p.Scan.p_line
             ~hint:
               "use the _opt variant or a pattern match so the hot path \
                cannot raise on the empty case"
             "partial call %s on a hot path (%s.%s)" p.Scan.p_fn module_
             b.Scan.b_name))
      b.Scan.b_partials
  end;
  (* EXC001 is a local property — resource safety does not depend on who
     calls the binding — so it fires everywhere, not just on hot paths *)
  List.iter
    (fun (r : Scan.raise_site) ->
      if not r.Scan.r_protected then
        List.iter
          (fun (q : Scan.acquire) ->
            if q.Scan.q_line <= r.Scan.r_line then
              emit
                (finding ~code:"EXC001" ~file ~line:r.Scan.r_line
                   ~hint:
                     "wrap the region in Fun.protect ~finally:(fun () -> \
                      release) so the exceptional path releases too"
                   "%s here may skip the release of %s acquired at line %d \
                    (%s.%s)"
                   r.Scan.r_fn q.Scan.q_what q.Scan.q_line module_
                   b.Scan.b_name))
          b.Scan.b_acquires)
    b.Scan.b_raises;
  if det_here then
    List.iter
      (fun (i : Scan.impure) ->
        match i.Scan.i_kind with
        | Scan.Hash_order { sorted = true } -> ()
        | Scan.Hash_order { sorted = false } ->
            emit
              (finding ~code:"DET001" ~file ~line:i.Scan.i_line
                 ~hint:
                   "sort the traversal's result (Hashtbl.fold ... |> \
                    List.sort ...) or iterate over a sorted key list"
                 "%s traverses in unspecified seed-dependent order inside \
                  result-producing code (%s.%s)"
                 i.Scan.i_what module_ b.Scan.b_name)
        | Scan.Clock ->
            emit
              (finding ~code:"DET002" ~file ~line:i.Scan.i_line
                 ~hint:
                   "move timing to the obs layer; results must not depend \
                    on the wall clock"
                 "%s read inside result-producing code (%s.%s)" i.Scan.i_what
                 module_ b.Scan.b_name)
        | Scan.Rand ->
            emit
              (finding ~code:"DET003" ~file ~line:i.Scan.i_line
                 ~hint:
                   "thread an explicit seeded generator (Random.State or \
                    Numerics.Rng) instead of the ambient global state"
                 "%s draws from the ambient PRNG inside result-producing \
                  code (%s.%s)"
                 i.Scan.i_what module_ b.Scan.b_name))
      b.Scan.b_impures;
  List.rev !out

(* ---- alloc summaries ----------------------------------------------------- *)

let counts_of_binding (b : Scan.binding) =
  List.fold_left
    (fun c (a : Scan.alloc) ->
      let c =
        match a.Scan.h_kind with
        | Scan.Construct _ -> { c with constructs = c.constructs + 1 }
        | Scan.Closure -> { c with closures = c.closures + 1 }
        | Scan.Builder _ -> { c with builders = c.builders + 1 }
      in
      if a.Scan.h_loop then { c with in_loop = c.in_loop + 1 } else c)
    zero_counts b.Scan.b_allocs

let add_counts a b =
  {
    constructs = a.constructs + b.constructs;
    closures = a.closures + b.closures;
    builders = a.builders + b.builders;
    in_loop = a.in_loop + b.in_loop;
    bindings = a.bindings + b.bindings;
  }

(* Transitive allocation summary for one entry: direct counts of every
   binding reachable from it, entry included — the static complement of a
   Gc.minor_words measurement around one call. *)
let transitive_counts graph ~module_ (b : Scan.binding) =
  let visited = Hashtbl.create 64 in
  let total = ref zero_counts in
  let rec visit m (b : Scan.binding) =
    let key = (m, b.Scan.b_name) in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.add visited key ();
      total :=
        add_counts !total { (counts_of_binding b) with bindings = 1 };
      List.iter
        (fun (c : Scan.call) ->
          List.iter
            (fun (m', b') -> visit m' b')
            (Callgraph.resolve graph ~current_module:m c.Scan.c_path))
        b.Scan.b_calls
    end
  in
  visit module_ b;
  !total

(* ---- dead exports (EXP001) ----------------------------------------------- *)

(* The last component of every identifier an expression names, in one
   parsed source: [Foo.bar], [bar] after [open Foo] and a punned [~bar] all
   count as [bar]. Name-only on purpose: without a typing pass a common
   name used anywhere hides a dead export of the same name, but no live
   export is ever flagged. *)
let idents_of (src : Source.t) tbl =
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; _ } ->
        Hashtbl.replace tbl (Longident.last txt) ()
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it src.Source.structure;
  it.signature it src.Source.signature

(* A scanned [.mli]'s values that no other scanned file names: the
   module's own [.ml] does not count, so a value only its own module uses
   should leave the interface, and one nobody uses should go. *)
let dead_exports sources =
  let stem (s : Source.t) = Filename.remove_extension s.Source.path in
  (* identifier -> the stems of the files naming it, one binding each *)
  let namers = Hashtbl.create 4096 in
  List.iter
    (fun (s : Source.t) ->
      let names = Hashtbl.create 256 in
      idents_of s names;
      Hashtbl.iter (fun name () -> Hashtbl.add namers name (stem s)) names)
    sources;
  let named_elsewhere ~own name =
    List.exists (fun st -> st <> own) (Hashtbl.find_all namers name)
  in
  List.concat_map
    (fun (s : Source.t) ->
      List.filter_map
        (fun (item : Parsetree.signature_item) ->
          match item.Parsetree.psig_desc with
          | Parsetree.Psig_value vd ->
              let name = vd.Parsetree.pval_name.txt in
              if named_elsewhere ~own:(stem s) name then None
              else
                Some
                  (finding ~code:"EXP001" ~file:s.Source.path
                     ~line:
                       item.Parsetree.psig_loc.Location.loc_start
                         .Lexing.pos_lnum
                     ~hint:
                       "delete it, drop it from the interface if its own \
                        module uses it, or keep it with a reasoned \
                        statflow pragma on or above the val"
                     "%s.%s is exported, but no other scanned file names it"
                     s.Source.module_name name)
          | _ -> None)
        s.Source.signature)
    (List.filter (fun (s : Source.t) -> Source.is_interface s.Source.path) sources)

(* ---- driver -------------------------------------------------------------- *)

let dedupe diags =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (d : Diag.t) ->
      let key = (d.Diag.code, Diag.to_string d) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    diags

let select_entries facts names =
  List.concat_map
    (fun (ff : Scan.file_facts) ->
      let module_ = ff.Scan.source.Source.module_name in
      List.filter_map
        (fun (b : Scan.binding) ->
          if entry_selected names ~module_ b then
            Some (module_, ff.Scan.source.Source.path, b)
          else None)
        ff.Scan.bindings)
    facts

let run ?(config = default_config) sources =
  let implementations =
    List.filter (fun (s : Source.t) -> not (Source.is_interface s.Source.path)) sources
  in
  let facts = List.map Scan.file implementations in
  let hot_names, det_names =
    match config.entries with
    | [] -> (default_hot_entries, default_det_entries)
    | es -> (es, es)
  in
  let hot_entries = select_entries facts hot_names in
  let det_entries = select_entries facts det_names in
  (* one fixpoint per graph: hot edges are "guarded" when made under
     Fun.protect (EXC semantics ride along for free), det uses the same
     machinery with reachability only *)
  let hot_graph = Callgraph.build facts in
  Callgraph.compute hot_graph
    ~guard_of:(fun c -> c.Scan.c_protected)
    ~through_values:true
    ~entries:(List.map (fun (m, _, b) -> (m, b)) hot_entries);
  let det_graph = Callgraph.build facts in
  Callgraph.compute det_graph
    ~guard_of:(fun _ -> false)
    ~through_values:true
    ~entries:(List.map (fun (m, _, b) -> (m, b)) det_entries);
  let called_across = called_across_modules hot_graph facts in
  let raw =
    List.concat_map
      (fun (ff : Scan.file_facts) ->
        let module_ = ff.Scan.source.Source.module_name in
        let file = ff.Scan.source.Source.path in
        List.concat_map
          (fun (b : Scan.binding) ->
            classify ~hot_graph ~det_graph ~called_across ~file ~module_
              ~is_hot:(entry_selected hot_names ~module_ b)
              ~is_det:(entry_selected det_names ~module_ b)
              b)
          ff.Scan.bindings)
      facts
    @ dead_exports sources
    |> dedupe
  in
  let s = Srcmodel.Suppress.apply ~tool ~sources ~allow:config.allow raw in
  let entry_triple (m, file, (b : Scan.binding)) =
    (m ^ "." ^ b.Scan.b_name, file, b.Scan.b_line)
  in
  {
    files_scanned = List.length sources;
    hot_entries = List.map entry_triple hot_entries;
    det_entries = List.map entry_triple det_entries;
    summaries =
      List.map
        (fun (m, _, b) ->
          ( m ^ "." ^ b.Scan.b_name,
            transitive_counts hot_graph ~module_:m b ))
        hot_entries;
    findings = Diag.sort (s.Srcmodel.Suppress.kept @ s.Srcmodel.Suppress.stale);
    suppressed = s.Srcmodel.Suppress.suppressed;
  }

let run_dirs ?(config = default_config) roots =
  let sources, parse_errors = Source.load_dirs ~tool ~interfaces:true roots in
  let r = run ~config sources in
  { r with findings = Diag.sort (parse_errors @ r.findings) }

let count_by_code diags =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (d : Diag.t) ->
      Hashtbl.replace tbl d.Diag.code
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d.Diag.code)))
    diags;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
