(* Unit tests for the standard-cell library substrate. *)

open Test_util

(* ---- Fn ----------------------------------------------------------------- *)

let all_input_combos arity =
  List.init (1 lsl arity) (fun v ->
      Array.init arity (fun i -> v land (1 lsl i) <> 0))

let fn_truth_tables () =
  let spec fn inputs =
    let all = Array.for_all Fun.id inputs and any = Array.exists Fun.id inputs in
    match fn with
    | Cells.Fn.Inv -> not inputs.(0)
    | Cells.Fn.Buf -> inputs.(0)
    | Cells.Fn.Nand _ -> not all
    | Cells.Fn.Nor _ -> not any
    | Cells.Fn.And _ -> all
    | Cells.Fn.Or _ -> any
    | Cells.Fn.Xor2 -> inputs.(0) <> inputs.(1)
    | Cells.Fn.Xnor2 -> inputs.(0) = inputs.(1)
    | Cells.Fn.Aoi21 -> not ((inputs.(0) && inputs.(1)) || inputs.(2))
    | Cells.Fn.Oai21 -> not ((inputs.(0) || inputs.(1)) && inputs.(2))
    | Cells.Fn.Mux2 -> if inputs.(2) then inputs.(1) else inputs.(0)
  in
  List.iter
    (fun fn ->
      List.iter
        (fun inputs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s truth table" (Cells.Fn.name fn))
            (spec fn inputs) (Cells.Fn.eval fn inputs))
        (all_input_combos (Cells.Fn.arity fn)))
    Cells.Fn.all_shapes

let fn_name_roundtrip () =
  List.iter
    (fun fn ->
      match Cells.Fn.of_name (Cells.Fn.name fn) with
      | Some fn' -> check_true "roundtrip" (Cells.Fn.equal fn fn')
      | None -> Alcotest.failf "of_name failed for %s" (Cells.Fn.name fn))
    Cells.Fn.all_shapes

let fn_bench_aliases () =
  let expect alias fn =
    match Cells.Fn.of_name alias with
    | Some got -> check_true alias (Cells.Fn.equal got fn)
    | None -> Alcotest.failf "alias %s not recognized" alias
  in
  expect "NOT" Cells.Fn.Inv;
  expect "BUFF" Cells.Fn.Buf;
  expect "XOR" Cells.Fn.Xor2;
  expect "nand" (Cells.Fn.Nand 2);
  Alcotest.(check bool) "garbage" true (Cells.Fn.of_name "FROB" = None)

let fn_arity_eval_mismatch () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Fn.eval: NAND2 expects 2 inputs, got 3") (fun () ->
      ignore (Cells.Fn.eval (Cells.Fn.Nand 2) [| true; true; false |]))

let fn_inverting () =
  check_true "nand inverts" (Cells.Fn.inverting (Cells.Fn.Nand 2));
  check_true "and does not" (not (Cells.Fn.inverting (Cells.Fn.And 2)))

(* ---- Library ------------------------------------------------------------ *)

let library_shape () =
  check_int "functions" (List.length Cells.Fn.all_shapes)
    (List.length (Cells.Library.functions lib));
  check_int "cells = functions x strengths"
    (List.length Cells.Fn.all_shapes * Array.length (Cells.Library.strengths lib))
    (Cells.Library.cell_count lib);
  List.iter
    (fun fn ->
      let sizes = Cells.Library.sizes_of_fn lib fn in
      check_int
        (Printf.sprintf "%s has 8 sizes" (Cells.Fn.name fn))
        8 (Array.length sizes))
    (Cells.Library.functions lib)

let library_monotone_strength () =
  List.iter
    (fun fn ->
      let sizes = Cells.Library.sizes_of_fn lib fn in
      for i = 0 to Array.length sizes - 2 do
        check_true "strength ascends"
          (Cells.Cell.strength sizes.(i) < Cells.Cell.strength sizes.(i + 1));
        check_true "area ascends"
          (Cells.Cell.area sizes.(i) < Cells.Cell.area sizes.(i + 1));
        check_true "input cap ascends"
          (Cells.Cell.input_cap sizes.(i) < Cells.Cell.input_cap sizes.(i + 1))
      done)
    (Cells.Library.functions lib)

let delay_monotone_in_load_and_slew () =
  let cell = Cells.Library.cell_exn lib ~fn:(Cells.Fn.Nand 2) ~drive_index:2 in
  let d1 = Cells.Cell.delay cell ~slew:10.0 ~load:5.0 in
  let d2 = Cells.Cell.delay cell ~slew:10.0 ~load:50.0 in
  let d3 = Cells.Cell.delay cell ~slew:60.0 ~load:5.0 in
  check_true "more load, more delay" (d2 > d1);
  check_true "more slew, more delay" (d3 > d1);
  let s1 = Cells.Cell.slew cell ~slew:10.0 ~load:5.0 in
  let s2 = Cells.Cell.slew cell ~slew:10.0 ~load:50.0 in
  check_true "more load, more output slew" (s2 > s1)

let delay_decreases_with_strength () =
  let sizes = Cells.Library.sizes_of_fn lib (Cells.Fn.Nand 2) in
  let at i = Cells.Cell.delay sizes.(i) ~slew:15.0 ~load:30.0 in
  for i = 0 to Array.length sizes - 2 do
    check_true "stronger is faster under load" (at (i + 1) < at i)
  done

let library_lookup () =
  (match Cells.Library.find lib ~name:"NAND2_X4" with
  | Some c ->
      check_true "fn" (Cells.Fn.equal (Cells.Cell.fn c) (Cells.Fn.Nand 2));
      close "strength" 4.0 (Cells.Cell.strength c)
  | None -> Alcotest.fail "NAND2_X4 missing");
  check_true "unknown name" (Cells.Library.find lib ~name:"NAND9_X1" = None)

let library_next_up_down () =
  let min_c = Cells.Library.min_cell lib ~fn:Cells.Fn.Inv in
  let max_c = Cells.Library.max_cell lib ~fn:Cells.Fn.Inv in
  check_true "min has no down" (Cells.Library.next_down lib min_c = None);
  check_true "max has no up" (Cells.Library.next_up lib max_c = None);
  (match Cells.Library.next_up lib min_c with
  | Some c -> check_int "up index" 1 (Cells.Cell.drive_index c)
  | None -> Alcotest.fail "min should have an up");
  match Cells.Library.next_down lib max_c with
  | Some c ->
      check_int "down index"
        (Array.length (Cells.Library.strengths lib) - 2)
        (Cells.Cell.drive_index c)
  | None -> Alcotest.fail "max should have a down"

let library_cell_exn_bounds () =
  Alcotest.check_raises "drive out of range"
    (Invalid_argument "Library.cell_exn: drive 99 out of range for INV")
    (fun () -> ignore (Cells.Library.cell_exn lib ~fn:Cells.Fn.Inv ~drive_index:99))

let library_custom_generate () =
  let small =
    Cells.Library.generate ~name:"mini" ~strengths:[| 1.0; 2.0 |]
      ~shapes:[ Cells.Fn.Inv; Cells.Fn.Nand 2 ] ()
  in
  check_int "two functions" 2 (List.length (Cells.Library.functions small));
  check_int "four cells" 4 (Cells.Library.cell_count small);
  check_true "inv present" (Cells.Library.mem_fn small Cells.Fn.Inv);
  check_true "nor absent" (not (Cells.Library.mem_fn small (Cells.Fn.Nor 2)))

(* [Fn.index] numbers the valid functions densely, in [all_shapes] order. *)
let fn_index_dense () =
  List.iteri
    (fun i fn -> check_int (Cells.Fn.name fn) i (Cells.Fn.index fn))
    Cells.Fn.all_shapes;
  check_int "index_count" (List.length Cells.Fn.all_shapes) Cells.Fn.index_count;
  List.iter
    (fun fn -> check_int (Cells.Fn.name fn) (-1) (Cells.Fn.index fn))
    Cells.Fn.[ Nand 1; Nor 5; And 0; Or 7 ]

(* [sizes_of_fn] indexes the groups by [Fn.index]: for every function, in
   [functions]' order, it returns the group's own array (the same array on
   every call, holding the very cells [cells] lists for the function), and
   a missing function raises the message the list lookup raised. *)
let library_sizes_of_fn_index () =
  let check_library what lib =
    let groups =
      List.map
        (fun fn ->
          let sizes = Cells.Library.sizes_of_fn lib fn in
          check_true
            (Printf.sprintf "%s %s: same array" what (Cells.Fn.name fn))
            (sizes == Cells.Library.sizes_of_fn lib fn);
          check_true
            (Printf.sprintf "%s %s: mem_fn" what (Cells.Fn.name fn))
            (Cells.Library.mem_fn lib fn);
          Array.to_list sizes)
        (Cells.Library.functions lib)
      |> List.concat
    and cells = Cells.Library.cells lib in
    check_int (what ^ ": cell count") (List.length cells) (List.length groups);
    check_true (what ^ ": the same cells, in groups' order")
      (List.for_all2 ( == ) cells groups)
  in
  check_library "default" lib;
  check_library "liberty" (Cells.Liberty.of_string (Cells.Liberty.to_string lib));
  let small =
    Cells.Library.generate ~name:"mini" ~strengths:[| 1.0; 2.0 |]
      ~shapes:[ Cells.Fn.Mux2; Cells.Fn.Inv ] ()
  in
  check_library "mini" small;
  Alcotest.check_raises "absent function"
    (Invalid_argument "Library.sizes_of_fn: NOR2 not in library mini")
    (fun () -> ignore (Cells.Library.sizes_of_fn small (Cells.Fn.Nor 2)));
  Alcotest.check_raises "invalid arity"
    (Invalid_argument "Library.sizes_of_fn: NAND7 not in library statsize90")
    (fun () -> ignore (Cells.Library.sizes_of_fn lib (Cells.Fn.Nand 7)));
  check_true "invalid arity not a member"
    (not (Cells.Library.mem_fn lib (Cells.Fn.Nand 7)));
  let inv = Cells.Library.min_cell lib ~fn:Cells.Fn.Inv in
  Alcotest.check_raises "of_cells rejects an invalid function"
    (Invalid_argument "Library.of_cells: cell BAD has invalid function NAND7")
    (fun () ->
      ignore
        (Cells.Library.of_cells ~name:"bad" ~tau:5.0 ~strengths:[| 1.0 |]
           [ { inv with Cells.Cell.name = "BAD"; fn = Cells.Fn.Nand 7 } ]))

(* ---- Liberty ------------------------------------------------------------ *)

let liberty_roundtrip () =
  let text = Cells.Liberty.to_string lib in
  let lib2 = Cells.Liberty.of_string text in
  Alcotest.(check string) "name" (Cells.Library.name lib) (Cells.Library.name lib2);
  check_int "cell count" (Cells.Library.cell_count lib)
    (Cells.Library.cell_count lib2);
  (* spot-check timing equality through the round trip *)
  List.iter
    (fun name ->
      match (Cells.Library.find lib ~name, Cells.Library.find lib2 ~name) with
      | Some a, Some b ->
          close ~tol:1e-12 "area" (Cells.Cell.area a) (Cells.Cell.area b);
          close ~tol:1e-12 "cap" (Cells.Cell.input_cap a) (Cells.Cell.input_cap b);
          List.iter
            (fun (slew, load) ->
              close ~tol:1e-9 "delay"
                (Cells.Cell.delay a ~slew ~load)
                (Cells.Cell.delay b ~slew ~load);
              close ~tol:1e-9 "slew"
                (Cells.Cell.slew a ~slew ~load)
                (Cells.Cell.slew b ~slew ~load))
            [ (5.0, 2.0); (22.0, 17.0); (100.0, 80.0) ]
      | _ -> Alcotest.failf "cell %s lost in roundtrip" name)
    [ "INV_X1"; "NAND3_X8"; "XOR2_X16"; "MUX2_X2" ]

let liberty_parse_error () =
  (try
     ignore (Cells.Liberty.of_string "library x\nbogus 1.0\n");
     Alcotest.fail "expected parse error"
   with Cells.Liberty.Parse_error _ -> ());
  try
    ignore (Cells.Liberty.of_string "");
    Alcotest.fail "expected parse error on empty"
  with Cells.Liberty.Parse_error _ -> ()

let liberty_file_io () =
  let path = Filename.temp_file "statsize" ".lib" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cells.Liberty.save lib ~path;
      let lib2 = Cells.Liberty.load ~path in
      check_int "cells" (Cells.Library.cell_count lib) (Cells.Library.cell_count lib2))

(* A delay query allocates only what crosses its boundary: the caller's two
   boxed arguments and the boxed result, 6 words. A lookup that compares
   with polymorphic C calls and returns a closure-built (index, fraction)
   tuple allocates 21.75 per query on these points. They mix in-range
   queries with clamps past every edge, so both branches of the
   out-of-range check are measured. *)
let delay_query_allocation_pin () =
  let cell = List.hd (Cells.Library.cells lib) in
  let slews = [| 2.0; 7.5; 33.0; 160.0; 0.5; 900.0; 12.0; 1.0 |]
  and loads = [| 0.5; 3.3; 17.0; 128.0; 0.1; 4.0; 600.0; 0.2 |] in
  let n = Array.length slews in
  let queries = 10_000 in
  let sweep () =
    for k = 0 to queries - 1 do
      let p = k mod n in
      ignore
        (Sys.opaque_identity
           (Cells.Cell.delay cell ~slew:slews.(p) ~load:loads.(p)))
    done
  in
  sweep ();
  let w0 = Gc.minor_words () in
  sweep ();
  let per_query = (Gc.minor_words () -. w0) /. float_of_int queries in
  check_true
    (Printf.sprintf "minor words per delay query %.2f <= 8" per_query)
    (per_query <= 8.0)

let () =
  Alcotest.run "cells"
    [
      ( "fn",
        [
          Alcotest.test_case "truth tables" `Quick fn_truth_tables;
          Alcotest.test_case "name roundtrip" `Quick fn_name_roundtrip;
          Alcotest.test_case "bench aliases" `Quick fn_bench_aliases;
          Alcotest.test_case "eval arity mismatch" `Quick fn_arity_eval_mismatch;
          Alcotest.test_case "inverting" `Quick fn_inverting;
          Alcotest.test_case "dense index" `Quick fn_index_dense;
        ] );
      ( "library",
        [
          Alcotest.test_case "shape" `Quick library_shape;
          Alcotest.test_case "monotone strength" `Quick library_monotone_strength;
          Alcotest.test_case "delay monotonicity" `Quick
            delay_monotone_in_load_and_slew;
          Alcotest.test_case "delay query allocation pin" `Quick
            delay_query_allocation_pin;
          Alcotest.test_case "strength speeds up" `Quick
            delay_decreases_with_strength;
          Alcotest.test_case "lookup" `Quick library_lookup;
          Alcotest.test_case "next up/down" `Quick library_next_up_down;
          Alcotest.test_case "cell_exn bounds" `Quick library_cell_exn_bounds;
          Alcotest.test_case "custom generate" `Quick library_custom_generate;
          Alcotest.test_case "sizes_of_fn by function index" `Quick
            library_sizes_of_fn_index;
        ] );
      ( "liberty",
        [
          Alcotest.test_case "roundtrip" `Quick liberty_roundtrip;
          Alcotest.test_case "parse errors" `Quick liberty_parse_error;
          Alcotest.test_case "file io" `Quick liberty_file_io;
        ] );
    ]
