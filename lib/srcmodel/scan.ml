(* The extraction pass. One hand-rolled recursion over [Parsetree]
   expressions (compiler-libs 5.1 layout) threading an immutable context —
   scope map, spawn depth, guard/protect/sorted/loop flags — and appending
   facts to the current binding's accumulator. A manual walk, rather than
   [Ast_iterator], keeps the scope save/restore discipline explicit: every
   construct that binds names extends the map for exactly its own subtree.

   The pass serves two analyzers. statrace consumes the mutable-state facts
   (writes, atomics, spawns, DLS); statflow consumes the allocation,
   raise/resource, partial-call and impurity facts. Both share the call
   facts the call graph is built from. *)

open Parsetree

type mutable_kind = Ref | Field | Array_slot | Bytes_slot | Container

type origin =
  | Local of { kind : mutable_kind option; spawn_depth : int }
  | Dls
  | Binding

type target =
  | Var of string * origin
  | Free of string
  | Path of string list
  | Complex

type write = {
  w_kind : mutable_kind;
  w_target : target;
  w_line : int;
  w_spawn : int;
  w_guarded : bool;
}

type call = {
  c_path : string list;
  c_spawn : int;
  c_guarded : bool;
  c_protected : bool;
}

type atomic_op = {
  a_side : [ `Get | `Set ];
  a_target : string;
  a_line : int;
  a_spawn : int;
  a_guarded : bool;
}

type dls_new = { d_line : int; d_spawn : int }

(* ---- statflow facts ------------------------------------------------------ *)

type alloc_kind =
  | Construct of string  (* tuple/record/variant/cons/array literal *)
  | Closure  (* a [fun] literal in expression position *)
  | Builder of string  (* a named stdlib allocator, e.g. "Array.make" *)

type alloc = { h_kind : alloc_kind; h_line : int; h_loop : bool }
type raise_site = { r_fn : string; r_line : int; r_protected : bool }
type acquire = { q_what : string; q_line : int }
type partial_call = { p_fn : string; p_line : int }
type impure_kind = Hash_order of { sorted : bool } | Clock | Rand
type impure = { i_kind : impure_kind; i_what : string; i_line : int }

type binding = {
  b_name : string;
  b_line : int;
  b_is_function : bool;
  b_alloc : mutable_kind option;
  b_spawns : int list;
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
  b_inline : bool;
}

type file_facts = { source : Source.t; bindings : binding list }

module SMap = Map.Make (String)

type ctx = {
  scope : origin SMap.t;
  spawn : int;
  guard : bool;  (* lexically inside a [Mutex.protect] thunk *)
  protect : bool;  (* inside a [Fun.protect] thunk or a [try] body *)
  sorted : bool;  (* value flows into a [List.sort]-family sink *)
  loop : bool;  (* inside a for/while body or a known-iterator callback *)
}

(* Mutable accumulator for the binding currently being walked. *)
type acc = {
  mutable spawns : int list;
  mutable writes : write list;
  mutable calls : call list;
  mutable atomics : atomic_op list;
  mutable dls_news : dls_new list;
  mutable allocs : alloc list;
  mutable raises : raise_site list;
  mutable acquires : acquire list;
  mutable partials : partial_call list;
  mutable impures : impure list;
}

let fresh_acc () =
  {
    spawns = [];
    writes = [];
    calls = [];
    atomics = [];
    dls_news = [];
    allocs = [];
    raises = [];
    acquires = [];
    partials = [];
    impures = [];
  }

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply (a, _) -> flatten_lid a

let last2 = function
  | [] | [ _ ] -> None
  | path ->
      let arr = Array.of_list path in
      let n = Array.length arr in
      Some (arr.(n - 2), arr.(n - 1))

let line_of e = e.pexp_loc.Location.loc_start.Lexing.pos_lnum

(* ---- pattern variables --------------------------------------------------- *)

let rec pat_vars p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (sub, { txt; _ }) -> txt :: pat_vars sub
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pat_vars ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) -> pat_vars p
  | Ppat_record (fields, _) -> List.concat_map (fun (_, p) -> pat_vars p) fields
  | Ppat_or (a, b) -> pat_vars a @ pat_vars b
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_exception p | Ppat_open (_, p)
    ->
      pat_vars p
  | _ -> []

let bind_pat origin ctx p =
  List.fold_left
    (fun scope v -> SMap.add v origin scope)
    ctx.scope (pat_vars p)
  |> fun scope -> { ctx with scope }

(* ---- syntactic classification -------------------------------------------- *)

(* Does this RHS syntactically allocate fresh mutable state? *)
let rec alloc_of_rhs e =
  match e.pexp_desc with
  | Pexp_array _ -> `Alloc Array_slot
  | Pexp_record _ -> `Alloc Field
  | Pexp_constraint (e, _) | Pexp_open (_, e) | Pexp_newtype (_, e) ->
      alloc_of_rhs e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match flatten_lid txt with
      | [ "ref" ] | [ "Stdlib"; "ref" ] -> `Alloc Ref
      | path when last2 path = Some ("DLS", "get") -> `Dls
      | path -> (
          match last2 path with
          | Some
              ( "Array",
                ( "make" | "init" | "copy" | "create_float" | "make_matrix"
                | "of_list" | "append" | "sub" | "map" | "mapi" | "concat" ) )
            ->
              `Alloc Array_slot
          | Some
              ( "Bytes",
                ("create" | "make" | "copy" | "of_string" | "init" | "sub") )
            ->
              `Alloc Bytes_slot
          | Some ("Hashtbl", ("create" | "copy"))
          | Some (("Buffer" | "Queue" | "Stack"), "create") ->
              `Alloc Container
          | _ -> `Other))
  | _ -> `Other

let origin_of_rhs ctx e =
  match alloc_of_rhs e with
  | `Alloc kind -> Local { kind = Some kind; spawn_depth = ctx.spawn }
  | `Dls -> Dls
  | `Other -> Binding

let target_of ctx e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident name; _ } -> (
      match SMap.find_opt name ctx.scope with
      | Some o -> Var (name, o)
      | None -> Free name)
  | Pexp_ident { txt; _ } -> Path (flatten_lid txt)
  | _ -> Complex

(* A stable rendering of simple lvalues ([counter], [t.cell], [M.flag]) for
   PAR005's same-location get/set pairing; anything more complex renders
   uniquely per line so it can never pair up. *)
let rec render_simple e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> String.concat "." (flatten_lid txt)
  | Pexp_field (base, { txt; _ }) ->
      render_simple base ^ "." ^ String.concat "." (flatten_lid txt)
  | _ -> Printf.sprintf "<expr@%d>" (line_of e)

(* Mutating stdlib entry points: (module, function) -> kind and the index of
   the mutated argument. *)
let mutator_table =
  [
    (("Array", "set"), (Array_slot, 0));
    (("Array", "unsafe_set"), (Array_slot, 0));
    (("Array", "fill"), (Array_slot, 0));
    (("Array", "sort"), (Array_slot, 1));
    (("Array", "fast_sort"), (Array_slot, 1));
    (("Array", "stable_sort"), (Array_slot, 1));
    (("Array", "blit"), (Array_slot, 2));
    (("Bytes", "set"), (Bytes_slot, 0));
    (("Bytes", "unsafe_set"), (Bytes_slot, 0));
    (("Bytes", "fill"), (Bytes_slot, 0));
    (("Bytes", "blit"), (Bytes_slot, 2));
    (("Bytes", "blit_string"), (Bytes_slot, 2));
    (("Hashtbl", "add"), (Container, 0));
    (("Hashtbl", "replace"), (Container, 0));
    (("Hashtbl", "remove"), (Container, 0));
    (("Hashtbl", "reset"), (Container, 0));
    (("Hashtbl", "clear"), (Container, 0));
    (("Hashtbl", "filter_map_inplace"), (Container, 1));
    (("Buffer", "add_char"), (Container, 0));
    (("Buffer", "add_string"), (Container, 0));
    (("Buffer", "add_bytes"), (Container, 0));
    (("Buffer", "add_buffer"), (Container, 0));
    (("Buffer", "add_substring"), (Container, 0));
    (("Buffer", "clear"), (Container, 0));
    (("Buffer", "reset"), (Container, 0));
    (("Buffer", "truncate"), (Container, 0));
    (("Queue", "push"), (Container, 1));
    (("Queue", "add"), (Container, 1));
    (("Queue", "pop"), (Container, 0));
    (("Queue", "take"), (Container, 0));
    (("Queue", "clear"), (Container, 0));
    (("Stack", "push"), (Container, 1));
    (("Stack", "pop"), (Container, 0));
    (("Stack", "clear"), (Container, 0));
  ]

(* Stdlib entry points that allocate their result on every call. The table
   is deliberately coarse — it names the builders that show up on SSTA hot
   paths, not the whole stdlib. *)
let builder_fns =
  [
    ( "Array",
      [
        "make"; "init"; "copy"; "create_float"; "make_matrix"; "of_list";
        "to_list"; "append"; "sub"; "map"; "mapi"; "map2"; "concat"; "of_seq";
      ] );
    ( "List",
      [
        "map"; "mapi"; "map2"; "init"; "filter"; "filter_map"; "concat";
        "concat_map"; "append"; "rev"; "rev_append"; "rev_map"; "of_seq";
        "flatten"; "combine"; "split"; "merge"; "sort"; "sort_uniq";
        "stable_sort"; "fast_sort";
      ] );
    ( "Bytes",
      [ "create"; "make"; "copy"; "of_string"; "to_string"; "init"; "sub";
        "cat" ] );
    ( "String",
      [ "make"; "init"; "concat"; "sub"; "cat"; "split_on_char"; "map";
        "mapi" ] );
    ("Hashtbl", [ "create"; "copy" ]);
    ("Buffer", [ "create"; "contents"; "to_bytes" ]);
    ("Queue", [ "create" ]);
    ("Stack", [ "create" ]);
    ("Printf", [ "sprintf" ]);
    ("Format", [ "asprintf" ]);
    ("Fmt", [ "str" ]);
  ]

let builder_of path =
  match path with
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref"
  | [ "^" ] | [ "Stdlib"; "^" ] -> Some "(^)"
  | [ "@" ] | [ "Stdlib"; "@" ] -> Some "(@)"
  | _ -> (
      match last2 path with
      | Some (m, f) -> (
          match List.assoc_opt m builder_fns with
          | Some fns when List.mem f fns -> Some (m ^ "." ^ f)
          | _ -> None)
      | None -> None)

let raise_fn = function
  | [ (("raise" | "raise_notrace" | "failwith" | "invalid_arg") as f) ]
  | [ "Stdlib"; (("raise" | "raise_notrace" | "failwith" | "invalid_arg") as f) ]
    ->
      Some f
  | path -> (
      match last2 path with
      | Some ("Fmt", (("failwith" | "invalid_arg") as f)) -> Some ("Fmt." ^ f)
      | _ -> None)

let acquire_of path =
  match path with
  | [ f ] | [ "Stdlib"; f ]
    when List.mem f
           [
             "open_in"; "open_in_bin"; "open_in_gen"; "open_out";
             "open_out_bin"; "open_out_gen";
           ] ->
      Some f
  | path -> (
      match last2 path with
      | Some ("Mutex", "lock") -> Some "Mutex.lock"
      | Some ("Unix", "openfile") -> Some "Unix.openfile"
      | _ -> None)

let partial_of path =
  match last2 path with
  | Some ("List", (("hd" | "tl" | "nth" | "find") as f)) -> Some ("List." ^ f)
  | Some ("Option", "get") -> Some "Option.get"
  | Some ("Hashtbl", "find") -> Some "Hashtbl.find"
  | _ -> None

(* Ambient wall-clock and PRNG state; [Random.State] and the project's own
   seeded [Numerics.Rng] never match. *)
let impure_of path =
  match last2 path with
  | Some ("Hashtbl", (("fold" | "iter" | "to_seq") as f)) ->
      Some (`Hash, "Hashtbl." ^ f)
  | Some ("Sys", "time") -> Some (`Clock, "Sys.time")
  | Some ("Unix", (("gettimeofday" | "time" | "times") as f)) ->
      Some (`Clock, "Unix." ^ f)
  | Some ("Random", f) when not (List.mem "State" path) ->
      Some (`Rand, "Random." ^ f)
  | _ -> None

(* Higher-order stdlib entry points whose callback runs once per element:
   a fun literal passed to one of these executes in an iteration context. *)
let iterator_fns =
  [
    ( "List",
      [
        "iter"; "iteri"; "iter2"; "map"; "mapi"; "map2"; "rev_map"; "init";
        "fold_left"; "fold_right"; "fold_left_map"; "fold_left2"; "filter";
        "filter_map"; "concat_map"; "for_all"; "exists"; "for_all2";
        "exists2"; "find"; "find_opt"; "find_map"; "partition"; "sort";
        "sort_uniq"; "stable_sort"; "fast_sort"; "merge";
      ] );
    ( "Array",
      [
        "iter"; "iteri"; "iter2"; "map"; "mapi"; "map2"; "init";
        "fold_left"; "fold_right"; "for_all"; "exists"; "find_opt"; "sort";
        "stable_sort"; "fast_sort";
      ] );
    ( "Seq",
      [ "iter"; "map"; "filter"; "filter_map"; "fold_left"; "init";
        "for_all"; "exists" ] );
    ("Hashtbl", [ "iter"; "fold"; "filter_map_inplace" ]);
  ]

let is_iterator path =
  match last2 path with
  | Some (m, f) -> (
      match List.assoc_opt m iterator_fns with
      | Some fns -> List.mem f fns
      | None -> false)
  | None -> false

let sort_sink_path path =
  match last2 path with
  | Some
      (("List" | "Array"), ("sort" | "sort_uniq" | "stable_sort" | "fast_sort"))
    ->
      true
  | _ -> false

(* Is this expression a [List.sort]-family function (possibly already
   applied to its comparator), i.e. a sink that makes an unordered fold
   upstream of it order-insensitive again? *)
let rec is_sort_sink e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> sort_sink_path (flatten_lid txt)
  | Pexp_apply (f, _) -> is_sort_sink f
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> is_sort_sink e
  | _ -> false

(* ---- the walk ------------------------------------------------------------ *)

let walk acc =
  let record_write ctx ~kind ~line target =
    acc.writes <-
      {
        w_kind = kind;
        w_target = target;
        w_line = line;
        w_spawn = ctx.spawn;
        w_guarded = ctx.guard;
      }
      :: acc.writes
  in
  let record_call ctx path =
    acc.calls <-
      {
        c_path = path;
        c_spawn = ctx.spawn;
        c_guarded = ctx.guard;
        c_protected = ctx.protect;
      }
      :: acc.calls
  in
  let record_atomic ctx ~side ~line target_expr =
    acc.atomics <-
      {
        a_side = side;
        a_target = render_simple target_expr;
        a_line = line;
        a_spawn = ctx.spawn;
        a_guarded = ctx.guard;
      }
      :: acc.atomics
  in
  let record_alloc ctx ~kind ~line =
    acc.allocs <-
      { h_kind = kind; h_line = line; h_loop = ctx.loop } :: acc.allocs
  in
  let rec expr ctx e =
    let line = line_of e in
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> record_call ctx (flatten_lid txt)
    | Pexp_constant _ | Pexp_unreachable | Pexp_new _ | Pexp_extension _ -> ()
    | Pexp_let (_, vbs, body) ->
        List.iter (fun vb -> expr ctx vb.pvb_expr) vbs;
        let ctx' =
          List.fold_left
            (fun c vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } ->
                  {
                    c with
                    scope =
                      SMap.add txt (origin_of_rhs ctx vb.pvb_expr) c.scope;
                  }
              | _ -> bind_pat Binding c vb.pvb_pat)
            ctx vbs
        in
        expr ctx' body
    | Pexp_fun _ | Pexp_function _ ->
        (* one runtime closure however many curried params the chain has *)
        record_alloc ctx ~kind:Closure ~line;
        peel ctx e
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        apply ctx ~line (flatten_lid txt) args
    | Pexp_apply (f, args) ->
        expr ctx f;
        List.iter (fun (_, a) -> expr ctx a) args
    | Pexp_try (scrut, cases) ->
        (* raises in the scrutinee are caught right here *)
        expr { ctx with protect = true } scrut;
        List.iter (case ctx) cases
    | Pexp_match (scrut, cases) ->
        expr ctx scrut;
        List.iter (case ctx) cases
    | Pexp_tuple es ->
        record_alloc ctx ~kind:(Construct "tuple") ~line;
        List.iter (expr ctx) es
    | Pexp_array es ->
        record_alloc ctx ~kind:(Construct "array literal") ~line;
        List.iter (expr ctx) es
    | Pexp_construct ({ txt; _ }, eo) -> (
        match (flatten_lid txt, eo) with
        | _, None -> ()
        | [ "::" ], Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ } ->
            (* one cons cell, not a cons plus a tuple *)
            record_alloc ctx ~kind:(Construct "list cons") ~line;
            expr ctx hd;
            expr ctx tl
        | path, Some arg ->
            record_alloc ctx ~kind:(Construct (String.concat "." path)) ~line;
            expr ctx arg)
    | Pexp_variant (tag, eo) -> (
        match eo with
        | None -> ()
        | Some arg ->
            record_alloc ctx ~kind:(Construct ("`" ^ tag)) ~line;
            expr ctx arg)
    | Pexp_record (fields, base) ->
        record_alloc ctx ~kind:(Construct "record") ~line;
        List.iter (fun (_, v) -> expr ctx v) fields;
        Option.iter (expr ctx) base
    | Pexp_field (base, _) -> expr ctx base
    | Pexp_setfield (base, _, v) ->
        record_write ctx ~kind:Field ~line (target_of ctx base);
        expr ctx base;
        expr ctx v
    | Pexp_ifthenelse (c, t, eo) ->
        expr ctx c;
        expr ctx t;
        Option.iter (expr ctx) eo
    | Pexp_sequence (a, b) ->
        expr ctx a;
        expr ctx b
    | Pexp_while (c, body) ->
        expr ctx c;
        expr { ctx with loop = true } body
    | Pexp_for (pat, lo, hi, _, body) ->
        expr ctx lo;
        expr ctx hi;
        expr (bind_pat Binding { ctx with loop = true } pat) body
    | Pexp_constraint (e, _)
    | Pexp_coerce (e, _, _)
    | Pexp_assert e
    | Pexp_lazy e
    | Pexp_poly (e, _)
    | Pexp_newtype (_, e)
    | Pexp_open (_, e)
    | Pexp_send (e, _)
    | Pexp_setinstvar (_, e) ->
        expr ctx e
    | Pexp_override fields -> List.iter (fun (_, v) -> expr ctx v) fields
    | Pexp_letmodule (_, me, body) ->
        module_expr ctx me;
        expr ctx body
    | Pexp_letexception (_, body) -> expr ctx body
    | Pexp_pack me -> module_expr ctx me
    | Pexp_letop { let_; ands; body } ->
        expr ctx let_.pbop_exp;
        List.iter (fun b -> expr ctx b.pbop_exp) ands;
        let ctx' =
          List.fold_left
            (fun c b -> bind_pat Binding c b.pbop_pat)
            (bind_pat Binding ctx let_.pbop_pat)
            ands
        in
        expr ctx' body
    | Pexp_object _ -> ()
  and case ctx c =
    let ctx' = bind_pat Binding ctx c.pc_lhs in
    Option.iter (expr ctx') c.pc_guard;
    expr ctx' c.pc_rhs
  (* Walk a fun chain's params and body without recording a closure for the
     chain itself — used for the binding's own leading funs (the function,
     not an allocation at its call sites) and after a closure has already
     been recorded once for the whole chain. *)
  and peel ctx e =
    match e.pexp_desc with
    | Pexp_fun (_, default, pat, body) ->
        Option.iter (expr ctx) default;
        peel (bind_pat Binding ctx pat) body
    | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> peel ctx body
    | Pexp_function cases -> List.iter (case ctx) cases
    | _ -> expr ctx e
  and apply ctx ~line path args =
    let args' = List.map snd args in
    let nth i = List.nth_opt args' i in
    (* statflow facts piggyback on every application, whatever the
       parallel-analysis dispatch below does with it *)
    Option.iter
      (fun b -> record_alloc ctx ~kind:(Builder b) ~line)
      (builder_of path);
    Option.iter
      (fun f ->
        acc.raises <-
          { r_fn = f; r_line = line; r_protected = ctx.protect } :: acc.raises)
      (raise_fn path);
    Option.iter
      (fun q -> acc.acquires <- { q_what = q; q_line = line } :: acc.acquires)
      (acquire_of path);
    Option.iter
      (fun p -> acc.partials <- { p_fn = p; p_line = line } :: acc.partials)
      (partial_of path);
    Option.iter
      (fun (k, what) ->
        let i_kind =
          match k with
          | `Hash -> Hash_order { sorted = ctx.sorted }
          | `Clock -> Clock
          | `Rand -> Rand
        in
        acc.impures <- { i_kind; i_what = what; i_line = line } :: acc.impures)
      (impure_of path);
    match (path, last2 path) with
    | _, Some ("Domain", "spawn") ->
        acc.spawns <- line :: acc.spawns;
        (match args' with
        | [ { pexp_desc = Pexp_fun (_, _, pat, body); _ } ] ->
            expr (bind_pat Binding { ctx with spawn = ctx.spawn + 1 } pat) body
        | [ { pexp_desc = Pexp_ident { txt; _ }; _ } ] ->
            record_call { ctx with spawn = ctx.spawn + 1 } (flatten_lid txt)
        | _ -> List.iter (expr { ctx with spawn = ctx.spawn + 1 }) args')
    | _, Some ("Mutex", "protect") -> (
        match args' with
        | [ m; { pexp_desc = Pexp_fun (_, _, pat, body); _ } ] ->
            expr ctx m;
            expr (bind_pat Binding { ctx with guard = true } pat) body
        | [ m; { pexp_desc = Pexp_ident { txt; _ }; _ } ] ->
            expr ctx m;
            record_call { ctx with guard = true } (flatten_lid txt)
        | _ -> List.iter (expr ctx) args')
    | _, Some ("Fun", "protect") ->
        (* both the body thunk and ~finally run under the combinator: a
           raise inside either cannot skip the release *)
        List.iter
          (fun a ->
            match a.pexp_desc with
            | Pexp_fun (_, _, pat, body) ->
                expr (bind_pat Binding { ctx with protect = true } pat) body
            | Pexp_ident { txt; _ } ->
                record_call { ctx with protect = true } (flatten_lid txt)
            | _ -> expr ctx a)
          args'
    | _, Some ("DLS", "new_key") when List.mem "Domain" path ->
        acc.dls_news <- { d_line = line; d_spawn = ctx.spawn } :: acc.dls_news;
        List.iter (expr ctx) args'
    | _, Some ("Atomic", ("get" | "set")) ->
        (match nth 0 with
        | Some target ->
            let side =
              if last2 path = Some ("Atomic", "get") then `Get else `Set
            in
            record_atomic ctx ~side ~line target
        | None -> ());
        List.iter (expr_skip_target ctx) args'
    | ( ([ "incr" ] | [ "decr" ] | [ "Stdlib"; "incr" ] | [ "Stdlib"; "decr" ]),
        _ ) ->
        (match nth 0 with
        | Some t -> record_write ctx ~kind:Ref ~line (target_of ctx t)
        | None -> ());
        List.iter (expr_skip_target ctx) args'
    | ([ ":=" ] | [ "Stdlib"; ":=" ]), _ ->
        (match nth 0 with
        | Some t -> record_write ctx ~kind:Ref ~line (target_of ctx t)
        | None -> ());
        List.iter (expr_skip_target ctx) args'
    | ([ "|>" ] | [ "Stdlib"; "|>" ]), _ -> (
        match args' with
        | [ x; f ] ->
            expr (if is_sort_sink f then { ctx with sorted = true } else ctx) x;
            expr ctx f
        | _ -> List.iter (expr ctx) args')
    | ([ "@@" ] | [ "Stdlib"; "@@" ]), _ -> (
        match args' with
        | [ f; x ] ->
            expr ctx f;
            expr (if is_sort_sink f then { ctx with sorted = true } else ctx) x
        | _ -> List.iter (expr ctx) args')
    | _, _ when sort_sink_path path ->
        record_call ctx path;
        List.iter (callback_arg { ctx with sorted = true } ~iter:true) args'
    | _, Some key when List.mem_assoc key mutator_table ->
        let kind, target_idx = List.assoc key mutator_table in
        (match nth target_idx with
        | Some t -> record_write ctx ~kind ~line (target_of ctx t)
        | None -> ());
        List.iter (expr_skip_target ctx) args'
    | _ ->
        record_call ctx path;
        List.iter (callback_arg ctx ~iter:(is_iterator path)) args'
  (* A fun literal passed to a known iterator: the closure itself allocates
     once at the call site, but its body runs per element — record the
     closure with the surrounding context and walk the body as a loop. *)
  and callback_arg ctx ~iter a =
    match a.pexp_desc with
    | (Pexp_fun _ | Pexp_function _) when iter ->
        record_alloc ctx ~kind:Closure ~line:(line_of a);
        peel { ctx with loop = true } a
    | _ -> expr ctx a
  (* Walk an argument that served as a write/atomic target: its own subtree
     still gets scanned (nested calls, index expressions), but a bare ident
     does not additionally register as a "call" — a written-to location is
     not an entry into the call graph. *)
  and expr_skip_target ctx e =
    match e.pexp_desc with Pexp_ident _ -> () | _ -> expr ctx e
  and module_expr ctx me =
    match me.pmod_desc with
    | Pmod_structure items ->
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_value (_, vbs) ->
                List.iter (fun vb -> expr ctx vb.pvb_expr) vbs
            | Pstr_eval (e, _) -> expr ctx e
            | _ -> ())
          items
    | Pmod_constraint (me, _) | Pmod_functor (_, me) -> module_expr ctx me
    | _ -> ()
  in
  (expr, peel)

(* ---- top-level structure ------------------------------------------------- *)

let rec is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) | Pexp_constraint (e, _) -> is_function e
  | _ -> false

(* Boxed-float-return heuristic: the function's tail expression is float
   arithmetic, so every out-of-inline call boxes its result. *)
let float_op = function
  | [ ("+." | "-." | "*." | "/." | "**" | "sqrt" | "exp" | "log" | "abs_float")
    ]
  | [ "Stdlib";
      ("+." | "-." | "*." | "/." | "**" | "sqrt" | "exp" | "log" | "abs_float")
    ] ->
      true
  | path -> (
      match last2 path with Some ("Float", _) -> true | _ -> false)

let rec returns_float_op e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      float_op (flatten_lid txt)
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) -> returns_float_op body
  | Pexp_constraint (body, _) | Pexp_open (_, body) -> returns_float_op body
  | Pexp_let (_, _, body) | Pexp_sequence (_, body) -> returns_float_op body
  | Pexp_ifthenelse (_, t, Some e) -> returns_float_op t || returns_float_op e
  | _ -> false

(* [let[@inline] f ...], [[@@inline]] or [[@inline always]] on a value
   binding. [[@inline never]] is the opposite request. *)
let inline_requested attrs =
  List.exists
    (fun a ->
      match a.attr_name.txt with
      | "inline" | "ocaml.inline" -> (
          match a.attr_payload with
          | PStr [] -> true
          | PStr
              [
                {
                  pstr_desc =
                    Pstr_eval
                      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "always"; _ }; _ },
                        _ );
                  _;
                };
              ] ->
              true
          | _ -> false)
      | _ -> false)
    attrs

let empty_ctx =
  {
    scope = SMap.empty;
    spawn = 0;
    guard = false;
    protect = false;
    sorted = false;
    loop = false;
  }

let finish ~name ~line ~is_fn ~alloc ~float_ret ~inline acc =
  {
    b_name = name;
    b_line = line;
    b_is_function = is_fn;
    b_alloc = alloc;
    b_spawns = List.rev acc.spawns;
    b_writes = List.rev acc.writes;
    b_calls = List.rev acc.calls;
    b_atomics = List.rev acc.atomics;
    b_dls_news = List.rev acc.dls_news;
    b_allocs = List.rev acc.allocs;
    b_raises = List.rev acc.raises;
    b_acquires = List.rev acc.acquires;
    b_partials = List.rev acc.partials;
    b_impures = List.rev acc.impures;
    b_float_ret = float_ret;
    b_inline = inline;
  }

let binding_of_vb ~prefix vb =
  let acc = fresh_acc () in
  let is_fn = is_function vb.pvb_expr in
  let expr_w, peel_w = walk acc in
  (* a function binding's own leading fun chain is the function, not a
     closure allocation at call sites — peel it *)
  (if is_fn then peel_w else expr_w) empty_ctx vb.pvb_expr;
  let name =
    match pat_vars vb.pvb_pat with
    | v :: _ -> v
    | [] ->
        Printf.sprintf "_init_%d" vb.pvb_loc.Location.loc_start.Lexing.pos_lnum
  in
  finish
    ~name:(if prefix = "" then name else prefix ^ "." ^ name)
    ~line:vb.pvb_loc.Location.loc_start.Lexing.pos_lnum ~is_fn
    ~alloc:(match alloc_of_rhs vb.pvb_expr with `Alloc k -> Some k | _ -> None)
    ~float_ret:(is_fn && returns_float_op vb.pvb_expr)
    ~inline:(inline_requested vb.pvb_attributes)
    acc

let rec structure_bindings ~prefix items =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.map (binding_of_vb ~prefix) vbs
      | Pstr_eval (e, _) ->
          let acc = fresh_acc () in
          (fst (walk acc)) empty_ctx e;
          [
            finish
              ~name:
                (Printf.sprintf "%s_eval_%d"
                   (if prefix = "" then "" else prefix ^ ".")
                   item.pstr_loc.Location.loc_start.Lexing.pos_lnum)
              ~line:item.pstr_loc.Location.loc_start.Lexing.pos_lnum
              ~is_fn:false ~alloc:None ~float_ret:false ~inline:false acc;
          ]
      | Pstr_module mb -> module_bindings ~prefix mb
      | Pstr_recmodule mbs -> List.concat_map (module_bindings ~prefix) mbs
      | _ -> [])
    items

and module_bindings ~prefix mb =
  let sub = match mb.pmb_name.Location.txt with Some n -> n | None -> "_" in
  let prefix = if prefix = "" then sub else prefix ^ "." ^ sub in
  let rec of_mod me =
    match me.pmod_desc with
    | Pmod_structure items -> structure_bindings ~prefix items
    | Pmod_constraint (me, _) | Pmod_functor (_, me) -> of_mod me
    | _ -> []
  in
  of_mod mb.pmb_expr

let file (source : Source.t) =
  { source; bindings = structure_bindings ~prefix:"" source.Source.structure }
