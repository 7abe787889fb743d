(* Lint subsystem tests: every public rule code has a trigger, the JSON
   codec round-trips, the registry filters and remaps, the sizer preflight
   refuses Error findings, and the shipped generators stay Error-clean. *)

open Test_util

let codes diags = List.map (fun d -> d.Diag.code) diags
let has_code c diags = List.mem c (codes diags)

let check_has_code ~msg c diags =
  if not (has_code c diags) then
    Alcotest.failf "%s: expected %s in [%s]" msg c
      (String.concat "; " (codes diags))

(* ---- fixture circuits --------------------------------------------------- *)

let nand2 = Cells.Library.cell_exn lib ~fn:(Cells.Fn.Nand 2) ~drive_index:0

(* a,b -> g (output), plus gate [d] with no fanout and no output mark. *)
let dangling_circuit () =
  let c = Netlist.Circuit.create ~name:"dangling" () in
  let a = Netlist.Circuit.add_input c ~name:"a" in
  let b = Netlist.Circuit.add_input c ~name:"b" in
  let g = Netlist.Circuit.add_gate c ~name:"g" ~cell:nand2 ~fanins:[| a; b |] in
  Netlist.Circuit.mark_output c g;
  let _ = Netlist.Circuit.add_gate c ~name:"d" ~cell:nand2 ~fanins:[| a; b |] in
  c

(* [u] feeds only [d]; [d] dangles. u is unreachable-from-outputs (CIRC005)
   while d itself is the dangling gate (CIRC004). *)
let unreachable_circuit () =
  let c = Netlist.Circuit.create ~name:"unreach" () in
  let a = Netlist.Circuit.add_input c ~name:"a" in
  let b = Netlist.Circuit.add_input c ~name:"b" in
  let g = Netlist.Circuit.add_gate c ~name:"g" ~cell:nand2 ~fanins:[| a; b |] in
  Netlist.Circuit.mark_output c g;
  let u = Netlist.Circuit.add_gate c ~name:"u" ~cell:nand2 ~fanins:[| a; b |] in
  let _ = Netlist.Circuit.add_gate c ~name:"d" ~cell:nand2 ~fanins:[| u; a |] in
  c

(* ---- fixture libraries -------------------------------------------------- *)

let mk_lut ?(rows = [| 2.0; 10.0 |]) ?(cols = [| 1.0; 8.0 |]) f =
  Numerics.Lut.of_function ~rows ~cols f

let good_lut ?rows ?cols () =
  mk_lut ?rows ?cols (fun s l -> 1.0 +. (0.05 *. s) +. (0.5 *. l))

let mk_cell ?(name = "TN") ?(fn = Cells.Fn.Nand 2) ?(drive_index = 0)
    ?(strength = 1.0) ?(area = 1.0) ?(input_cap = 1.0) ?delay ?output_slew () =
  let delay = match delay with Some d -> d | None -> good_lut () in
  let output_slew =
    match output_slew with Some s -> s | None -> good_lut ()
  in
  {
    Cells.Cell.name;
    fn;
    drive_index;
    strength;
    area;
    input_cap;
    delay;
    output_slew;
  }

let mk_lib ?(strengths = [| 1.0; 2.0 |]) cells =
  Cells.Library.of_cells ~name:"testlib" ~tau:5.0 ~strengths cells

(* Every cell's delay table tops out at 1 fF, so the default 4 fF output
   load exceeds even the strongest drive: CIRC006. *)
let narrow = good_lut ~cols:[| 0.5; 1.0 |] ()

let weak_lib () =
  mk_lib
    [
      mk_cell ~name:"W1" ~delay:narrow ~output_slew:narrow ();
      mk_cell ~name:"W2" ~drive_index:1 ~strength:2.0 ~area:2.0 ~delay:narrow
        ~output_slew:narrow ();
    ]

(* The strongest cell covers the load but the minimum cell does not, so a
   gate left at minimum size extrapolates: CIRC007 (and not CIRC006). *)
let narrow_min_lib () =
  mk_lib
    [
      mk_cell ~name:"N1" ~delay:narrow ~output_slew:narrow ();
      mk_cell ~name:"N2" ~drive_index:1 ~strength:2.0 ~area:2.0
        ~delay:(good_lut ~cols:[| 1.0; 100.0 |] ())
        ~output_slew:(good_lut ~cols:[| 1.0; 100.0 |] ())
        ();
    ]

let one_gate_circuit custom_lib =
  let cell = Cells.Library.min_cell custom_lib ~fn:(Cells.Fn.Nand 2) in
  let c = Netlist.Circuit.create ~name:"one" () in
  let a = Netlist.Circuit.add_input c ~name:"a" in
  let b = Netlist.Circuit.add_input c ~name:"b" in
  let g = Netlist.Circuit.add_gate c ~name:"g" ~cell ~fanins:[| a; b |] in
  Netlist.Circuit.mark_output c g;
  c

(* Delay decreases along the load axis: LIB001 (an Error) — used both as a
   pack trigger and to make the sizer preflight refuse. *)
let nonmonotone_load_lib () =
  mk_lib
    [
      mk_cell ~name:"M1"
        ~delay:
          (Numerics.Lut.create ~rows:[| 2.0; 10.0 |] ~cols:[| 1.0; 8.0 |]
             ~values:[| [| 5.0; 4.0 |]; [| 6.0; 5.5 |] |])
        ();
      mk_cell ~name:"M2" ~drive_index:1 ~strength:2.0 ~area:2.0 ();
    ]

(* ---- per-code triggers -------------------------------------------------- *)

let bench_cycle = "INPUT(a)\nOUTPUT(y)\nu = AND(a, w)\nw = OR(u, a)\ny = NAND(u, w)\n"
let bench_multi = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n"
let bench_undef = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n"
let bench_syntax = "INPUT(a)\nOUTPUT(y)\nthis is not bench\ny = NOT(a)\n"
let bench_gate = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = LATCH(a, b)\n"

(* ---- statrace fixtures (inline sources, parsed, never compiled) --------- *)

let statrace_parse (path, text) =
  match Srcmodel.Source.of_string ~tool:Statrace.Analyze.tool ~path text with
  | Ok s -> s
  | Error d -> Alcotest.failf "fixture %s: %s" path (Diag.to_string d)

let statrace_findings texts =
  (Statrace.Analyze.run (List.map statrace_parse texts))
    .Statrace.Analyze.findings

let par_ref =
  ( "par_ref.ml",
    "let hits = ref 0\n\
     let run () = Domain.join (Domain.spawn (fun () -> incr hits))\n" )

let par_container =
  ( "par_container.ml",
    "let cache = Hashtbl.create 7\n\
     let run () =\n\
    \  Domain.join (Domain.spawn (fun () -> Hashtbl.replace cache 1 2))\n" )

let par_array =
  ( "par_array.ml",
    "let slots = Array.make 4 0\n\
     let run () = Domain.join (Domain.spawn (fun () -> slots.(0) <- 1))\n" )

let par_dls =
  ( "par_dls.ml",
    "let run () =\n\
    \  Domain.join\n\
    \    (Domain.spawn (fun () ->\n\
    \       let k = Domain.DLS.new_key (fun () -> 0) in\n\
    \       Domain.DLS.get k))\n" )

let par_rmw =
  ( "par_rmw.ml",
    "let total = Atomic.make 0\n\
     let run () =\n\
    \  Domain.join\n\
    \    (Domain.spawn (fun () -> Atomic.set total (Atomic.get total + 1)))\n" )

let par_captured =
  ( "par_captured.ml",
    "let run () =\n\
    \  let acc = ref 0 in\n\
    \  Domain.join (Domain.spawn (fun () -> acc := 1));\n\
    \  !acc\n" )

let par_stale =
  ( "par_stale.ml",
    "(* statrace: safe — nothing here needs suppressing *)\n\
     let pure x = x + 1\n" )

(* ---- statflow fixtures (inline sources, parsed, never compiled) --------- *)

let statflow_parse (path, text) =
  match Srcmodel.Source.of_string ~tool:Statflow.Analyze.tool ~path text with
  | Ok s -> s
  | Error d -> Alcotest.failf "fixture %s: %s" path (Diag.to_string d)

let statflow_findings texts =
  let config =
    { Statflow.Analyze.default_config with entries = [ "run" ] }
  in
  (Statflow.Analyze.run ~config (List.map statflow_parse texts))
    .Statflow.Analyze.findings

let flow_construct =
  ( "flow_construct.ml",
    "let sink = ref (0, 0)\nlet run n = for i = 0 to n do sink := (i, i) done\n"
  )

let flow_closure =
  ( "flow_closure.ml",
    "let sink = ref (fun () -> 0)\n\
     let run n = for i = 0 to n do sink := (fun () -> i) done\n" )

let flow_builder =
  ( "flow_builder.ml",
    "let run n = for i = 1 to n do ignore (Array.make i 0) done\n" )

let flow_boxed = ("flow_boxed.ml", "let run x = (x *. 2.0) +. 1.0\n")

let flow_leak =
  ( "flow_leak.ml",
    "let run p =\n\
    \  let ic = open_in p in\n\
    \  if input_line ic = \"\" then failwith \"empty\";\n\
    \  close_in ic\n" )

let flow_partial = ("flow_partial.ml", "let run xs = List.hd xs + 1\n")

let flow_hash =
  ( "flow_hash.ml",
    "let tbl = Hashtbl.create 7\n\
     let run () = Hashtbl.fold (fun k v acc -> acc + (k * v)) tbl 0\n" )

let flow_clock = ("flow_clock.ml", "let run () = Sys.time () > 0.0\n")

let flow_rand = ("flow_rand.ml", "let run n = Random.int n\n")

let flow_stale =
  ( "flow_stale.ml",
    "(* statflow: safe — nothing here needs suppressing *)\n\
     let run x = x + 1\n" )

let flow_dead_export =
  ("flow_dead.mli", "val unused : int -> int\n")

(* One (code, thunk) pair per public rule; the coverage test below asserts
   this list spans the whole non-internal catalogue. *)
let triggers : (string * (unit -> Diag.t list)) list =
  [
    ("CIRC001", fun () -> Netlist.Bench_io.lint bench_cycle);
    ("CIRC002", fun () -> Netlist.Bench_io.lint bench_multi);
    ("CIRC003", fun () -> Netlist.Bench_io.lint bench_undef);
    ("CIRC004", fun () -> Lint.Circuit_rules.check (dangling_circuit ()));
    ("CIRC005", fun () -> Lint.Circuit_rules.check (unreachable_circuit ()));
    ( "CIRC006",
      fun () ->
        let l = weak_lib () in
        Lint.Circuit_rules.check ~lib:l (one_gate_circuit l) );
    ( "CIRC007",
      fun () ->
        let l = narrow_min_lib () in
        Lint.Circuit_rules.check ~lib:l (one_gate_circuit l) );
    ( "CIRC008",
      fun () ->
        let c = Netlist.Circuit.create ~name:"noout" () in
        let _ = Netlist.Circuit.add_input c ~name:"a" in
        Netlist.Circuit.validate_diag c );
    ( "CIRC009",
      fun () -> Netlist.Circuit.validate_diag (Netlist.Circuit.create ~name:"empty" ()) );
    ( "LIB001",
      fun () -> Lint.Library_rules.check (nonmonotone_load_lib ()) );
    ( "LIB002",
      fun () ->
        Lint.Library_rules.check_cell
          (mk_cell
             ~delay:
               (Numerics.Lut.create ~rows:[| 2.0; 10.0 |] ~cols:[| 1.0; 8.0 |]
                  ~values:[| [| 5.0; 6.0 |]; [| 4.0; 5.0 |] |])
             ()) );
    ( "LIB003",
      fun () ->
        Lint.Library_rules.check_cell
          (mk_cell
             ~delay:
               (Numerics.Lut.create ~rows:[| 2.0; 10.0 |] ~cols:[| 1.0; 8.0 |]
                  ~values:[| [| -1.0; 0.0 |]; [| 0.0; 1.0 |] |])
             ()) );
    ("LIB004", fun () -> Lint.Library_rules.check_cell (mk_cell ~input_cap:0.0 ()));
    ("LIB005", fun () -> Lint.Library_rules.check (mk_lib [ mk_cell () ]));
    ( "LIB006",
      fun () ->
        Lint.Library_rules.check
          (mk_lib
             [
               mk_cell ~name:"A1" ~area:2.0 ();
               mk_cell ~name:"A2" ~drive_index:1 ~strength:2.0 ~area:1.0 ();
             ]) );
    ( "LIB007",
      fun () ->
        let l = mk_lib [ mk_cell () ] in
        Lint.Extrapolation.reset l;
        let c = Cells.Library.min_cell l ~fn:(Cells.Fn.Nand 2) in
        let _ = Numerics.Lut.query c.Cells.Cell.delay ~row:500.0 ~col:500.0 in
        Lint.Extrapolation.collect l );
    ( "STAT001",
      fun () -> Lint.Stat_rules.check_points [ (0.0, 0.5); (1.0, 0.3) ] );
    ( "STAT002",
      fun () -> Lint.Stat_rules.check_points [ (0.0, -0.2); (1.0, 1.2) ] );
    ( "STAT003",
      fun () ->
        Lint.Stat_rules.check_model (Variation.Model.create ~systematic:10.0 ()) );
    ( "STAT004",
      fun () ->
        Lint.Stat_rules.check_model
          (Variation.Model.create ~systematic:0.0 ~random_floor:0.0 ()) );
    ( "STAT005",
      fun () ->
        (* resize a gate behind the incremental engine's back: paranoid mode
           must catch the stale annotation against the scratch oracle *)
        let c = tiny_circuit () in
        let full = Ssta.Fullssta.run c in
        let diverged = ref [] in
        List.iter
          (fun g ->
            if !diverged = [] then
              let cur = Netlist.Circuit.cell_exn c g in
              Array.iter
                (fun cell ->
                  if
                    !diverged = []
                    && Cells.Cell.name cell <> Cells.Cell.name cur
                  then begin
                    Netlist.Circuit.set_cell c g cell;
                    match
                      Ssta.Fullssta.update ~paranoid:true full
                    with
                    | exception Ssta.Fullssta.Divergence d -> diverged := [ d ]
                    | _ -> Netlist.Circuit.set_cell c g cur
                  end)
                (Cells.Library.sizes_of_fn lib (Cells.Cell.fn cur)))
          (Netlist.Circuit.gates c);
        !diverged );
    ("BENCH001", fun () -> Netlist.Bench_io.lint bench_syntax);
    ("BENCH002", fun () -> Netlist.Bench_io.lint bench_gate);
    (* ABS rules: statcheck runs over the tiny circuit cross-checked against
       deliberately corrupted engine lookups (a sound enclosure can only be
       escaped by feeding it a lie). *)
    ( "ABS001",
      fun () ->
        let sc =
          Absint.Statcheck.run
            ~config:
              {
                Absint.Statcheck.default_config with
                semantics = Absint.Domain.Distribution_free;
              }
            ~lib (tiny_circuit ())
        in
        Lint.Absint_rules.check_fullssta sc (fun _ ->
            Numerics.Clark.moments ~mean:1e7 ~var:0.0) );
    ( "ABS002",
      fun () ->
        let sc =
          Absint.Statcheck.run
            ~config:
              {
                Absint.Statcheck.default_config with
                semantics = Absint.Domain.Distribution_free;
              }
            ~lib (tiny_circuit ())
        in
        Lint.Absint_rules.check_fullssta sc (fun id ->
            Numerics.Clark.moments
              ~mean:(Numerics.Interval.mid (Absint.Statcheck.state sc id).Absint.Domain.mean)
              ~var:1e9) );
    ( "ABS003",
      fun () ->
        let sc = Absint.Statcheck.run ~lib (tiny_circuit ()) in
        Lint.Absint_rules.check_fassta ~engine:`Fast sc (fun _ ->
            Numerics.Clark.moments ~mean:1e7 ~var:0.0) );
    ( "ABS004",
      fun () ->
        let sc = Absint.Statcheck.run ~lib (tiny_circuit ()) in
        Lint.Absint_rules.check_budget sc
          ~fast:(fun _ -> Numerics.Clark.moments ~mean:1e7 ~var:0.0)
          ~exact:(fun _ -> Numerics.Clark.moments ~mean:0.0 ~var:0.0) );
    ( "ABS005",
      fun () ->
        let sc = Absint.Statcheck.run ~lib (tiny_circuit ()) in
        Lint.Absint_rules.check_budget_tolerance ~tol:0.0 sc );
    ( "PAR000",
      fun () ->
        match Srcmodel.Source.of_string ~tool:Statrace.Analyze.tool ~path:"bad.ml" "let = (" with
        | Error d -> [ d ]
        | Ok _ -> [] );
    ("PAR001", fun () -> statrace_findings [ par_ref ]);
    ("PAR002", fun () -> statrace_findings [ par_container ]);
    ("PAR003", fun () -> statrace_findings [ par_array ]);
    ("PAR004", fun () -> statrace_findings [ par_dls ]);
    ("PAR005", fun () -> statrace_findings [ par_rmw ]);
    ("PAR006", fun () -> statrace_findings [ par_captured ]);
    ("PAR007", fun () -> statrace_findings [ par_stale ]);
    ( "FLOW000",
      fun () ->
        match
          Srcmodel.Source.of_string ~tool:Statflow.Analyze.tool ~path:"bad.ml"
            "let = ("
        with
        | Error d -> [ d ]
        | Ok _ -> [] );
    ("HOT001", fun () -> statflow_findings [ flow_construct ]);
    ("HOT002", fun () -> statflow_findings [ flow_closure ]);
    ("HOT003", fun () -> statflow_findings [ flow_builder ]);
    ("HOT004", fun () -> statflow_findings [ flow_boxed ]);
    ("EXC001", fun () -> statflow_findings [ flow_leak ]);
    ("EXC002", fun () -> statflow_findings [ flow_partial ]);
    ("DET001", fun () -> statflow_findings [ flow_hash ]);
    ("DET002", fun () -> statflow_findings [ flow_clock ]);
    ("DET003", fun () -> statflow_findings [ flow_rand ]);
    ("EXP001", fun () -> statflow_findings [ flow_dead_export ]);
    ("FLOW007", fun () -> statflow_findings [ flow_stale ]);
  ]

let trigger_tests =
  List.map
    (fun (code, thunk) ->
      Alcotest.test_case ("trigger " ^ code) `Quick (fun () ->
          check_has_code ~msg:code code (thunk ())))
    triggers

(* Every non-internal catalogue entry must have a trigger above; the
   catalogue itself must contain every code the triggers claim. *)
let catalogue_coverage () =
  let public =
    List.filter_map
      (fun (m : Lint.Rule.meta) ->
        if m.Lint.Rule.internal then None else Some m.Lint.Rule.code)
      Lint.Rule.all
  in
  let covered = List.map fst triggers in
  List.iter
    (fun c ->
      if not (List.mem c covered) then
        Alcotest.failf "catalogue code %s has no trigger test" c)
    public;
  List.iter
    (fun c ->
      if not (Lint.Rule.mem c) then
        Alcotest.failf "trigger %s is not in the catalogue" c)
    covered

(* Triggered severities must match the catalogue defaults. *)
let severities_match_catalogue () =
  List.iter
    (fun (code, thunk) ->
      let meta =
        match Lint.Rule.find code with
        | Some m -> m
        | None -> Alcotest.failf "%s missing from catalogue" code
      in
      let ds = List.filter (fun d -> d.Diag.code = code) (thunk ()) in
      List.iter
        (fun d ->
          if d.Diag.severity <> meta.Lint.Rule.severity then
            Alcotest.failf "%s fired at %s, catalogue says %s" code
              (Diag.Severity.to_string d.Diag.severity)
              (Diag.Severity.to_string meta.Lint.Rule.severity))
        ds)
    triggers

(* ---- bench file:line locations ----------------------------------------- *)

let bench_locations () =
  let ds = Netlist.Bench_io.lint ~file:"t.bench" bench_cycle in
  check_has_code ~msg:"cycle" "CIRC001" ds;
  List.iter
    (fun d ->
      match d.Diag.location with
      | Diag.File { file; line } ->
          Alcotest.(check string) "file" "t.bench" file;
          check_true "positive line" (line > 0)
      | _ -> Alcotest.fail "bench diagnostics must carry file:line")
    ds

let bench_lint_file () =
  let path = Filename.temp_file "statlint" ".bench" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc bench_multi);
      let ds = Netlist.Bench_io.lint_file ~path in
      check_has_code ~msg:"from file" "CIRC002" ds;
      match ds with
      | { Diag.location = Diag.File { file; line = 4 }; _ } :: _ ->
          Alcotest.(check string) "path" path file
      | _ -> Alcotest.fail "expected CIRC002 at line 4")

(* A bench whose only problem is warning-level must still load permissively
   so the lint front end can report it (instead of dying in Build.finish). *)
let bench_permissive_load () =
  let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nu = NOT(a)\n" in
  Alcotest.(check int) "parse-clean" 0 (List.length (Netlist.Bench_io.lint text));
  (try
     ignore (Netlist.Bench_io.of_string ~lib text);
     Alcotest.fail "strict load should reject the dangling gate"
   with Invalid_argument _ -> ());
  let c = Netlist.Bench_io.of_string ~validate:false ~lib text in
  check_has_code ~msg:"dangling reported" "CIRC004"
    (Lint.Circuit_rules.check ~lib c)

(* A clean bench round-trips: lint finds nothing, load succeeds. *)
let bench_clean () =
  let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = NAND(a, b)\ny = NOT(u)\n" in
  Alcotest.(check int) "no diags" 0 (List.length (Netlist.Bench_io.lint text));
  let c = Netlist.Bench_io.of_string ~lib text in
  Alcotest.(check int) "gates" 2 (Netlist.Circuit.gate_count c)

(* ---- deprecated string validate wrapper --------------------------------- *)

let validate_wrapper () =
  let c = dangling_circuit () in
  Alcotest.(check (list string))
    "wrapper = rendered diags"
    (List.map Diag.to_string (Netlist.Circuit.validate_diag c))
    (Netlist.Circuit.validate c);
  check_true "non-empty" (Netlist.Circuit.validate c <> [])

(* ---- registry ----------------------------------------------------------- *)

let registry_disable () =
  let ds = Lint.Circuit_rules.check (dangling_circuit ()) in
  check_has_code ~msg:"before" "CIRC004" ds;
  let r = Lint.Registry.disable Lint.Registry.default "CIRC004" in
  check_true "after" (not (has_code "CIRC004" (Lint.Registry.apply r ds)))

let registry_override () =
  let ds = Lint.Circuit_rules.check (dangling_circuit ()) in
  let r =
    Lint.Registry.override Lint.Registry.default ~code:"CIRC004"
      ~severity:Diag.Severity.Error
  in
  let ds' = Lint.Registry.apply r ds in
  check_true "now an error"
    (List.exists
       (fun d -> d.Diag.code = "CIRC004" && d.Diag.severity = Diag.Severity.Error)
       ds');
  check_true "has_errors" (Diag.has_errors ds')

let registry_unknown_code () =
  (try
     ignore (Lint.Registry.disable Lint.Registry.default "NOPE001");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  match Lint.Registry.of_spec ~overrides:[ "CIRC004=loud" ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad severity spec accepted"

(* The PAR pack goes through the same registry and JSON plumbing as every
   other pack: --disable drops it, --severity remaps it, and Report JSON
   round-trips the findings. *)
let registry_par_pack () =
  let ds = statrace_findings [ par_ref ] in
  check_has_code ~msg:"before" "PAR001" ds;
  (match Lint.Registry.of_spec ~disable:[ "PAR001" ] () with
  | Error e -> Alcotest.failf "disable spec rejected: %s" e
  | Ok r -> check_true "disabled" (not (has_code "PAR001" (Lint.Registry.apply r ds))));
  let warn = statrace_findings [ par_rmw ] in
  check_has_code ~msg:"rmw" "PAR005" warn;
  (match Lint.Registry.of_spec ~overrides:[ "PAR005=error" ] () with
  | Error e -> Alcotest.failf "override spec rejected: %s" e
  | Ok r ->
      check_true "promoted"
        (List.exists
           (fun d ->
             d.Diag.code = "PAR005" && d.Diag.severity = Diag.Severity.Error)
           (Lint.Registry.apply r warn)));
  let json = Lint.Report.to_json [ ("races", ds) ] in
  match Lint.Report.of_json json with
  | Error e -> Alcotest.failf "PAR json: %s" e
  | Ok [ ("races", back) ] ->
      if back <> ds then Alcotest.fail "PAR findings did not round-trip"
  | Ok _ -> Alcotest.fail "unexpected report shape"

let registry_of_spec () =
  match
    Lint.Registry.of_spec ~disable:[ "CIRC005" ]
      ~overrides:[ "CIRC007=error" ] ()
  with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok r ->
      let l = narrow_min_lib () in
      let ds =
        Lint.Registry.apply r
          (Lint.Circuit_rules.check ~lib:l (one_gate_circuit l))
      in
      check_true "CIRC007 promoted"
        (List.exists
           (fun d ->
             d.Diag.code = "CIRC007" && d.Diag.severity = Diag.Severity.Error)
           ds)

(* ---- JSON --------------------------------------------------------------- *)

let json_roundtrip () =
  let targets =
    [
      ( "bad.bench",
        Netlist.Bench_io.lint bench_cycle
        @ Lint.Circuit_rules.check (dangling_circuit ()) );
      ("clean", []);
      ( "stats",
        Lint.Stat_rules.check_points [ (0.0, -0.2); (1.0, 1.2) ]
        @ Lint.Stat_rules.check_model
            (Variation.Model.create ~systematic:10.0 ()) );
    ]
  in
  let json = Lint.Report.to_json targets in
  match Lint.Report.of_json json with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok back ->
      Alcotest.(check int) "target count" (List.length targets) (List.length back);
      List.iter2
        (fun (n1, d1) (n2, d2) ->
          Alcotest.(check string) "name" n1 n2;
          if d1 <> d2 then Alcotest.failf "diagnostics for %s did not round-trip" n1)
        targets back

(* JSON has no NaN or infinity: the writer prints both as null, and a null
   value reads back as NaN. *)
let json_non_finite_values () =
  let ds =
    Lint.Stat_rules.check_points
      [ (Float.nan, -0.5); (Float.infinity, -0.5); (0.0, 2.0) ]
  in
  check_int "two negative-mass points" 2 (List.length ds);
  match Lint.Report.of_json (Lint.Report.to_json [ ("pdf", ds) ]) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok [ ("pdf", back) ] ->
      check_int "both read back" 2 (List.length back);
      List.iter
        (fun d ->
          match d.Diag.location with
          | Diag.Pdf_point { value; _ } ->
              check_true "value reads back as NaN" (Float.is_nan value)
          | _ -> Alcotest.fail "location changed")
        back
  | Ok _ -> Alcotest.fail "expected the one target"

let json_rejects_garbage () =
  (match Lint.Report.of_json "{\"version\":2,\"targets\":[]}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong version accepted");
  match Lint.Report.of_json "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

(* ---- report / exit codes ------------------------------------------------ *)

let exit_codes () =
  let err = Netlist.Bench_io.lint bench_cycle in
  let warn = Lint.Circuit_rules.check (dangling_circuit ()) in
  Alcotest.(check int) "errors" 1 (Lint.Report.exit_code err);
  Alcotest.(check int) "warnings" 0 (Lint.Report.exit_code warn);
  Alcotest.(check int) "warnings strict" 3 (Lint.Report.exit_code ~strict:true warn);
  Alcotest.(check int) "clean" 0 (Lint.Report.exit_code []);
  Alcotest.(check int) "clean strict" 0 (Lint.Report.exit_code ~strict:true [])

(* ---- engine / preflight ------------------------------------------------- *)

let default_setup_clean () =
  check_true "library clean of errors" (not (Diag.has_errors (Lint.Engine.check_library lib)));
  Alcotest.(check int) "model clean" 0
    (List.length (Lint.Engine.check_model Variation.Model.default))

let generators_error_clean () =
  List.iter
    (fun name ->
      let c = Benchgen.Iscas_like.build_exn ~lib name in
      let ds = Lint.Engine.check_all ~lib c in
      if Diag.has_errors ds then
        Alcotest.failf "%s has lint errors: %s" name
          (String.concat "; "
             (List.map Diag.to_string (List.filter (fun d -> d.Diag.severity = Diag.Severity.Error) ds))))
    Benchgen.Iscas_like.names

let preflight_rejects () =
  let l = nonmonotone_load_lib () in
  let c = one_gate_circuit l in
  try
    ignore (Core.Sizer.optimize ~lib:l c);
    Alcotest.fail "expected Lint.Preflight.Rejected"
  with Lint.Preflight.Rejected ds ->
    check_has_code ~msg:"payload" "LIB001" ds;
    check_true "payload has errors" (Diag.has_errors ds)

let preflight_escape_hatch () =
  let l = nonmonotone_load_lib () in
  let c = one_gate_circuit l in
  let config = { Core.Sizer.default_config with max_iterations = 2 } in
  let res = Core.Sizer.optimize ~ignore_lint:true ~config ~lib:l c in
  check_true "ran" (res.Core.Sizer.final_area > 0.0)

let preflight_passes_clean () =
  let c = tiny_circuit () in
  let ds = Lint.Preflight.gate ~lib c in
  check_true "no errors back" (not (Diag.has_errors ds))

(* FULLSSTA's post-run pdf self-check stays silent on a healthy run. *)
let fullssta_self_check () =
  let full = Ssta.Fullssta.run (tiny_circuit ()) in
  Alcotest.(check int) "clean" 0 (List.length (Ssta.Fullssta.check full))

(* ---- LUT clamp counters ------------------------------------------------- *)

let lut_oob_counting () =
  let lut = good_lut () in
  Alcotest.(check int) "fresh" 0 (Numerics.Lut.oob_count lut);
  let inside = Numerics.Lut.query lut ~row:5.0 ~col:4.0 in
  Alcotest.(check int) "in range free" 0 (Numerics.Lut.oob_count lut);
  let clamped = Numerics.Lut.query lut ~row:5.0 ~col:400.0 in
  Alcotest.(check int) "oob counted" 1 (Numerics.Lut.oob_count lut);
  (* clamp semantics: far-out query equals the edge value *)
  close ~tol:1e-12 "clamped to edge" (Numerics.Lut.query lut ~row:5.0 ~col:8.0) clamped;
  check_true "interior value sane" (inside > 0.0);
  Numerics.Lut.reset_oob lut;
  Alcotest.(check int) "reset" 0 (Numerics.Lut.oob_count lut)

let extrapolation_once_per_cell () =
  let l = mk_lib [ mk_cell () ] in
  Lint.Extrapolation.reset l;
  let c = Cells.Library.min_cell l ~fn:(Cells.Fn.Nand 2) in
  for _ = 1 to 5 do
    ignore (Numerics.Lut.query c.Cells.Cell.delay ~row:500.0 ~col:500.0)
  done;
  let ds = Lint.Extrapolation.collect l in
  Alcotest.(check int) "one diag per cell" 1 (List.length ds);
  check_has_code ~msg:"code" "LIB007" ds;
  Lint.Extrapolation.reset l;
  Alcotest.(check int) "reset clears" 0 (List.length (Lint.Extrapolation.collect l))

(* ---- suite -------------------------------------------------------------- *)

let () =
  Alcotest.run "lint"
    [
      ("triggers", trigger_tests);
      ( "catalogue",
        [
          Alcotest.test_case "coverage" `Quick catalogue_coverage;
          Alcotest.test_case "severities" `Quick severities_match_catalogue;
        ] );
      ( "bench",
        [
          Alcotest.test_case "locations" `Quick bench_locations;
          Alcotest.test_case "lint_file" `Quick bench_lint_file;
          Alcotest.test_case "permissive load" `Quick bench_permissive_load;
          Alcotest.test_case "clean" `Quick bench_clean;
        ] );
      ( "compat",
        [ Alcotest.test_case "validate wrapper" `Quick validate_wrapper ] );
      ( "registry",
        [
          Alcotest.test_case "disable" `Quick registry_disable;
          Alcotest.test_case "override" `Quick registry_override;
          Alcotest.test_case "unknown code" `Quick registry_unknown_code;
          Alcotest.test_case "of_spec" `Quick registry_of_spec;
          Alcotest.test_case "par pack" `Quick registry_par_pack;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick json_rejects_garbage;
          Alcotest.test_case "non-finite values" `Quick json_non_finite_values;
        ] );
      ("report", [ Alcotest.test_case "exit codes" `Quick exit_codes ]);
      ( "engine",
        [
          Alcotest.test_case "default setup clean" `Quick default_setup_clean;
          Alcotest.test_case "generators error-clean" `Slow generators_error_clean;
        ] );
      ( "preflight",
        [
          Alcotest.test_case "rejects" `Quick preflight_rejects;
          Alcotest.test_case "escape hatch" `Quick preflight_escape_hatch;
          Alcotest.test_case "passes clean" `Quick preflight_passes_clean;
          Alcotest.test_case "fullssta self-check" `Quick fullssta_self_check;
        ] );
      ( "extrapolation",
        [
          Alcotest.test_case "lut oob counting" `Quick lut_oob_counting;
          Alcotest.test_case "once per cell" `Quick extrapolation_once_per_cell;
        ] );
    ]
