(* statflow tests: every planted fixture yields exactly its expected
   HOT/EXC/DET findings, the sanctioned-patterns fixture stays silent,
   pragma suppression and staleness both work, the sort-sink discipline
   separates ordered from unordered Hashtbl traversals, and the static HOT
   verdicts agree with the dynamic Gc.minor_words budget on the real tree. *)

(* cwd is test/ under `dune runtest`, the project root under `dune exec` *)
let fixture_dir =
  List.find Sys.file_exists
    [
      Filename.concat "fixtures" "statflow";
      Filename.concat "test" (Filename.concat "fixtures" "statflow");
    ]

let fixture name = Filename.concat fixture_dir name

let load name =
  match Srcmodel.Source.load ~tool:Statflow.Analyze.tool (fixture name) with
  | Ok s -> s
  | Error d -> Alcotest.failf "fixture %s: %s" name (Diag.to_string d)

let parse ~path text =
  match Srcmodel.Source.of_string ~tool:Statflow.Analyze.tool ~path text with
  | Ok s -> s
  | Error d -> Alcotest.failf "inline %s: %s" path (Diag.to_string d)

(* every fixture roots its analysis at its own [run] — the bare name matches
   any module, and config entries replace both the hot and det sets *)
let config = { Statflow.Analyze.default_config with entries = [ "run" ] }

let codes (r : Statflow.Analyze.result) =
  List.map (fun d -> d.Diag.code) r.Statflow.Analyze.findings

let check_codes ~msg expected r =
  Alcotest.(check (list string)) msg expected (List.sort compare (codes r))

let run_fixtures names = Statflow.Analyze.run ~config (List.map load names)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

(* ---- planted findings --------------------------------------------------- *)

let planted () =
  check_codes ~msg:"hot001" [ "HOT001" ] (run_fixtures [ "hot001.ml" ]);
  check_codes ~msg:"hot002" [ "HOT002" ] (run_fixtures [ "hot002.ml" ]);
  check_codes ~msg:"hot003" [ "HOT003" ] (run_fixtures [ "hot003.ml" ]);
  check_codes ~msg:"hot004" [ "HOT004" ] (run_fixtures [ "hot004.ml" ]);
  check_codes ~msg:"hot004, [@inline] with same-module callers" []
    (run_fixtures [ "hot004_inline.ml" ]);
  check_codes ~msg:"hot004, [@inline] called from another module"
    [ "HOT004" ]
    (run_fixtures [ "hot004_kernel.ml"; "hot004_opaque.ml" ]);
  check_codes ~msg:"exc001" [ "EXC001" ] (run_fixtures [ "exc001.ml" ]);
  check_codes ~msg:"exc002" [ "EXC002" ] (run_fixtures [ "exc002.ml" ]);
  check_codes ~msg:"det001" [ "DET001" ] (run_fixtures [ "det001.ml" ]);
  check_codes ~msg:"det002" [ "DET002" ] (run_fixtures [ "det002.ml" ]);
  check_codes ~msg:"det003" [ "DET003" ] (run_fixtures [ "det003.ml" ])

(* [@inline never] is no inline request; and the cross-module finding says
   why the attribute did not help *)
let hot004_inline_hints () =
  check_codes ~msg:"[@inline never]" [ "HOT004" ]
    (Statflow.Analyze.run ~config
       [
         parse ~path:"never.ml"
           "let[@inline never] scale x = x *. 2.0\nlet run x = scale x\n";
       ]);
  match
    (run_fixtures [ "hot004_kernel.ml"; "hot004_opaque.ml" ])
      .Statflow.Analyze.findings
  with
  | [ d ] ->
      let hint = Option.value ~default:"" d.Diag.hint in
      Alcotest.(check bool)
        "finding names the kernel" true
        (contains (Diag.to_string d) "Hot004_kernel.blend");
      Alcotest.(check bool) "hint names -opaque" true (contains hint "-opaque")
  | ds -> Alcotest.failf "expected 1 finding, got %d" (List.length ds)

let locations_and_severities () =
  let severity name expected =
    let r = run_fixtures [ name ] in
    match r.Statflow.Analyze.findings with
    | [ d ] ->
        Alcotest.(check string)
          (name ^ " severity") expected
          (Diag.Severity.to_string d.Diag.severity)
    | ds ->
        Alcotest.failf "%s: expected 1 finding, got %d" name (List.length ds)
  in
  severity "hot001.ml" "warning";
  severity "hot004.ml" "info";
  severity "exc001.ml" "error";
  severity "det001.ml" "error";
  let r = run_fixtures [ "hot001.ml" ] in
  match r.Statflow.Analyze.findings with
  | [ d ] -> (
      match d.Diag.location with
      | Diag.File { file; line } ->
          Alcotest.(check string) "file" (fixture "hot001.ml") file;
          Alcotest.(check int) "line of the tuple" 7 line
      | _ -> Alcotest.fail "expected file:line location")
  | ds -> Alcotest.failf "expected 1 finding, got %d" (List.length ds)

(* ---- sanctioned patterns ------------------------------------------------- *)

let clean () =
  let r = run_fixtures [ "clean.ml" ] in
  check_codes ~msg:"clean" [] r;
  Alcotest.(check int) "nothing suppressed" 0 r.Statflow.Analyze.suppressed;
  Alcotest.(check int) "entry found" 1
    (List.length r.Statflow.Analyze.hot_entries)

let allowed_pragma () =
  let r = run_fixtures [ "allowed.ml" ] in
  check_codes ~msg:"suppressed finding" [] r;
  Alcotest.(check int) "one suppression" 1 r.Statflow.Analyze.suppressed

let stale_pragma () =
  let r = run_fixtures [ "stale.ml" ] in
  check_codes ~msg:"stale" [ "FLOW007" ] r

let parse_failure () =
  match
    Srcmodel.Source.of_string ~tool:Statflow.Analyze.tool ~path:"bad.ml"
      "let run = ("
  with
  | Ok _ -> Alcotest.fail "syntax error accepted"
  | Error d -> Alcotest.(check string) "code" "FLOW000" d.Diag.code

(* ---- whole-directory run ------------------------------------------------- *)

let full_directory () =
  let r = Statflow.Analyze.run_dirs ~config [ fixture_dir ] in
  Alcotest.(check int) "files" 15 r.Statflow.Analyze.files_scanned;
  Alcotest.(check (list (pair string int)))
    "histogram"
    [
      ("DET001", 1);
      ("DET002", 1);
      ("DET003", 1);
      ("EXC001", 1);
      ("EXC002", 1);
      ("FLOW007", 1);
      ("HOT001", 1);
      ("HOT002", 1);
      ("HOT003", 1);
      ("HOT004", 2);
    ]
    (Statflow.Analyze.count_by_code r.Statflow.Analyze.findings);
  Alcotest.(check int) "one suppression" 1 r.Statflow.Analyze.suppressed

(* ---- dead exports -------------------------------------------------------- *)

(* The EXP001 fixture lives beside the others, in its own directory, so the
   whole-directory histogram above keeps counting .ml fixtures only. Five
   values: one another file names (silent), one only its own module names
   and one nothing names (both fire), one kept by a pragma (silent, one
   suppression), and one whose pragma covers a value another file names
   (FLOW007). *)
let dead_exports () =
  let dir = Filename.concat (Filename.dirname fixture_dir) "exports" in
  let config = { config with Statflow.Analyze.entries = [ "nothing" ] } in
  let r = Statflow.Analyze.run_dirs ~config [ dir ] in
  Alcotest.(check int) "files" 3 r.Statflow.Analyze.files_scanned;
  let found =
    List.map
      (fun (d : Diag.t) ->
        match d.Diag.location with
        | Diag.File { file; line } -> (d.Diag.code, Filename.basename file, line)
        | _ -> (d.Diag.code, "?", 0))
      r.Statflow.Analyze.findings
  in
  Alcotest.(check (list (triple string string int)))
    "findings"
    [
      ("EXP001", "shared.mli", 6);
      ("EXP001", "shared.mli", 9);
      ("FLOW007", "shared.mli", 15);
    ]
    (List.sort compare found);
  Alcotest.(check int) "one suppression" 1 r.Statflow.Analyze.suppressed;
  List.iter
    (fun (d : Diag.t) ->
      if d.Diag.code = "EXP001" && not (contains (Diag.to_string d) "Shared.")
      then Alcotest.failf "finding does not name the module: %s" (Diag.to_string d))
    r.Statflow.Analyze.findings

(* ---- sort-sink discipline ------------------------------------------------ *)

(* the same traversal, ordered vs not: piping the fold into List.sort is
   what separates a deterministic result from a seed-dependent one. The
   HOT001 pair (cons + tuple in the iterator callback) fires either way —
   the entry is also a hot root here. *)
let sorted_fold () =
  let unsorted =
    "let tbl = Hashtbl.create 8\n\
     let run () = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\n"
  in
  let sorted =
    "let tbl = Hashtbl.create 8\n\
     let run () =\n\
    \  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\n\
    \  |> List.sort compare\n"
  in
  check_codes ~msg:"unsorted traversal"
    [ "DET001"; "HOT001"; "HOT001" ]
    (Statflow.Analyze.run ~config [ parse ~path:"unsorted.ml" unsorted ]);
  check_codes ~msg:"sorted traversal"
    [ "HOT001"; "HOT001" ]
    (Statflow.Analyze.run ~config [ parse ~path:"sorted.ml" sorted ])

(* ---- interprocedural gating ---------------------------------------------- *)

(* the loop allocation sits in a callee: it fires exactly when the callee is
   reachable from a configured entry *)
let reachable_callee () =
  let src =
    "let fill sink n = for i = 0 to n do sink := (i, i) done\n\
     let run n = fill (ref (0, 0)) n\n\
     let orphan n = fill (ref (0, 0)) n\n"
  in
  check_codes ~msg:"callee on the hot path" [ "HOT001" ]
    (Statflow.Analyze.run ~config [ parse ~path:"deep.ml" src ]);
  let cfg = { config with Statflow.Analyze.entries = [ "nothing" ] } in
  check_codes ~msg:"no entry, no findings" []
    (Statflow.Analyze.run ~config:cfg [ parse ~path:"deep.ml" src ])

(* reachability flows through value bindings: a closure parked in a table
   does not hide its payload *)
let through_values () =
  let src =
    "let fill sink n = for i = 0 to n do sink := (i, i) done\n\
     let table = [ (\"fill\", fill) ]\n\
     let run n = List.iter (fun (_, f) -> f n) table\n"
  in
  check_codes ~msg:"table-parked callee" [ "HOT001" ]
    (Statflow.Analyze.run ~config [ parse ~path:"table.ml" src ])

(* ---- allow file ---------------------------------------------------------- *)

let allow_file () =
  let path = Filename.temp_file "statflow" ".allow" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            "# reviewed probe tuple\n\
             HOT001 hot001.ml:7 fixture carries it deliberately\n\
             HOT003 nonexistent.ml stale entry\n");
      match Statflow.Analyze.parse_allow_file path with
      | Error e -> Alcotest.failf "allow file rejected: %s" e
      | Ok allow ->
          let config = { config with Statflow.Analyze.allow } in
          let r =
            Statflow.Analyze.run ~config (List.map load [ "hot001.ml" ])
          in
          (* the HOT001 is suppressed; the unmatched entry turns FLOW007 *)
          check_codes ~msg:"suppressed + stale" [ "FLOW007" ] r;
          Alcotest.(check int)
            "one suppression" 1 r.Statflow.Analyze.suppressed)

let allow_file_rejects_unknown_code () =
  let path = Filename.temp_file "statflow" ".allow" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "NOPE001 some/file.ml\n");
      match Statflow.Analyze.parse_allow_file path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unknown code accepted")

(* ---- alloc summaries ----------------------------------------------------- *)

let summaries () =
  let r = run_fixtures [ "hot003.ml" ] in
  match r.Statflow.Analyze.summaries with
  | [ (name, c) ] ->
      Alcotest.(check string) "entry" "Hot003.run" name;
      Alcotest.(check int) "bindings" 1 c.Statflow.Analyze.bindings;
      (* ref total + Array.make row *)
      Alcotest.(check int) "builders" 2 c.Statflow.Analyze.builders;
      Alcotest.(check int) "in loop" 1 c.Statflow.Analyze.in_loop
  | ss -> Alcotest.failf "expected 1 summary, got %d" (List.length ss)

(* ---- cross-check against the dynamic allocation budget ------------------- *)

(* test_obs.ml measures 100k disabled [Obs.Counters.bump] calls at
   ~0 minor words; the static verdict on the real tree must agree — no
   HOT001-3 may name Counters.bump. Runs the default (real) entry sets. *)
let real_tree_agrees_with_gc_budget () =
  match
    List.find_opt
      (List.for_all Sys.file_exists)
      [ [ "lib" ]; [ Filename.concat ".." "lib" ] ]
  with
  | None -> () (* sources not shipped with the test tree; nothing to check *)
  | Some roots ->
      let r = Statflow.Analyze.run_dirs [ roots |> List.hd ] in
      Alcotest.(check int)
        "all eight hot entries resolve" 8
        (List.length r.Statflow.Analyze.hot_entries);
      (* the Monte Carlo trial loop and the generator under it carry no
         allocation finding, and need no allow entry to get there *)
      List.iter
        (fun (d : Diag.t) ->
          match d.Diag.code with
          | "HOT001" | "HOT002" | "HOT003" ->
              (match d.Diag.location with
              | Diag.File { file; _ }
                when List.mem (Filename.basename file)
                       [ "monte_carlo.ml"; "rng.ml" ] ->
                  Alcotest.failf "allocation finding in %s: %s" file
                    (Diag.to_string d)
              | _ -> ())
          | _ -> ())
        r.Statflow.Analyze.findings;
      List.iter
        (fun (d : Diag.t) ->
          match d.Diag.code with
          | "HOT001" | "HOT002" | "HOT003" ->
              let msg = Diag.to_string d in
              if contains msg "(Counters.bump)" then
                Alcotest.failf
                  "static HOT finding contradicts the Gc budget test: %s" msg
          | _ -> ())
        r.Statflow.Analyze.findings

(* ---- suite --------------------------------------------------------------- *)

let () =
  Alcotest.run "statflow"
    [
      ( "fixtures",
        [
          Alcotest.test_case "planted findings" `Quick planted;
          Alcotest.test_case "HOT004 and [@inline]" `Quick hot004_inline_hints;
          Alcotest.test_case "locations and severities" `Quick
            locations_and_severities;
          Alcotest.test_case "clean patterns" `Quick clean;
          Alcotest.test_case "pragma suppression" `Quick allowed_pragma;
          Alcotest.test_case "stale pragma" `Quick stale_pragma;
          Alcotest.test_case "parse failure" `Quick parse_failure;
          Alcotest.test_case "full directory" `Quick full_directory;
          Alcotest.test_case "dead exports" `Quick dead_exports;
        ] );
      ( "model",
        [
          Alcotest.test_case "sort-sink discipline" `Quick sorted_fold;
          Alcotest.test_case "reachable callee" `Quick reachable_callee;
          Alcotest.test_case "through value bindings" `Quick through_values;
          Alcotest.test_case "alloc summaries" `Quick summaries;
        ] );
      ( "config",
        [
          Alcotest.test_case "allow file" `Quick allow_file;
          Alcotest.test_case "allow file unknown code" `Quick
            allow_file_rejects_unknown_code;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "agrees with Gc budget" `Quick
            real_tree_agrees_with_gc_budget;
        ] );
    ]
