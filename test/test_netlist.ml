(* Unit tests for the netlist substrate. *)

open Test_util

let nand2 = Cells.Library.cell_exn lib ~fn:(Cells.Fn.Nand 2) ~drive_index:0
let inv = Cells.Library.cell_exn lib ~fn:Cells.Fn.Inv ~drive_index:0

(* ---- Circuit ------------------------------------------------------------ *)

let circuit_construction () =
  let c = Netlist.Circuit.create ~name:"t" () in
  let a = Netlist.Circuit.add_input c ~name:"a" in
  let b = Netlist.Circuit.add_input c ~name:"b" in
  let g = Netlist.Circuit.add_gate c ~name:"g" ~cell:nand2 ~fanins:[| a; b |] in
  Netlist.Circuit.mark_output c g;
  check_int "size" 3 (Netlist.Circuit.size c);
  check_int "gates" 1 (Netlist.Circuit.gate_count c);
  Alcotest.(check (list int)) "inputs" [ a; b ] (Netlist.Circuit.inputs c);
  Alcotest.(check (list int)) "outputs" [ g ] (Netlist.Circuit.outputs c);
  Alcotest.(check (list int)) "fanouts of a" [ g ] (Netlist.Circuit.fanouts c a);
  check_true "validates" (Netlist.Circuit.validate c = [])

let circuit_duplicate_name () =
  let c = Netlist.Circuit.create ~name:"t" () in
  let _ = Netlist.Circuit.add_input c ~name:"a" in
  Alcotest.check_raises "duplicate" (Invalid_argument "Circuit: duplicate node name \"a\"")
    (fun () -> ignore (Netlist.Circuit.add_input c ~name:"a"))

let circuit_arity_mismatch () =
  let c = Netlist.Circuit.create ~name:"t" () in
  let a = Netlist.Circuit.add_input c ~name:"a" in
  try
    ignore (Netlist.Circuit.add_gate c ~name:"g" ~cell:nand2 ~fanins:[| a |]);
    Alcotest.fail "expected arity failure"
  with Invalid_argument _ -> ()

let circuit_forward_reference () =
  let c = Netlist.Circuit.create ~name:"t" () in
  let a = Netlist.Circuit.add_input c ~name:"a" in
  try
    ignore (Netlist.Circuit.add_gate c ~name:"g" ~cell:nand2 ~fanins:[| a; 7 |]);
    Alcotest.fail "expected fanin failure"
  with Invalid_argument _ -> ()

let circuit_set_cell_checks_function () =
  let c = tiny_circuit () in
  let n1 = Test_util.find_exn c ~name:"n1" in
  try
    Netlist.Circuit.set_cell c n1 inv;
    Alcotest.fail "expected function-change failure"
  with Invalid_argument _ -> ()

let circuit_set_cell_resizes () =
  let c = tiny_circuit () in
  let n1 = Test_util.find_exn c ~name:"n1" in
  let bigger = Cells.Library.cell_exn lib ~fn:(Cells.Fn.And 2) ~drive_index:3 in
  let area0 = Netlist.Circuit.total_area c in
  Netlist.Circuit.set_cell c n1 bigger;
  check_true "area grew" (Netlist.Circuit.total_area c > area0);
  check_true "cell updated"
    (Cells.Cell.equal (Netlist.Circuit.cell_exn c n1) bigger)

let circuit_load () =
  let c = tiny_circuit () in
  let a = Test_util.find_exn c ~name:"a" in
  let n1 = Test_util.find_exn c ~name:"n1" in
  let n3 = Test_util.find_exn c ~name:"n3" in
  (* a drives only n1: load = one AND2 pin *)
  close ~tol:1e-9 "input load"
    (Cells.Cell.input_cap (Netlist.Circuit.cell_exn c n1))
    (Netlist.Circuit.load c a);
  (* n3 is the primary output: external load only *)
  close ~tol:1e-9 "output load" (Netlist.Circuit.output_load c)
    (Netlist.Circuit.load c n3)

let circuit_topological_property () =
  let c = Benchgen.Alu.generate ~lib ~bits:4 () in
  List.iter
    (fun id ->
      Array.iter
        (fun fi -> check_true "fanin before gate" (fi < id))
        (Netlist.Circuit.fanins c id))
    (Netlist.Circuit.topological c)

let circuit_validate_dangling () =
  let c = Netlist.Circuit.create ~name:"t" () in
  let a = Netlist.Circuit.add_input c ~name:"a" in
  let b = Netlist.Circuit.add_input c ~name:"b" in
  let g = Netlist.Circuit.add_gate c ~name:"g" ~cell:nand2 ~fanins:[| a; b |] in
  let problems = Netlist.Circuit.validate c in
  check_true "dangling gate reported"
    (List.exists (fun p -> String.length p > 0) problems);
  Netlist.Circuit.mark_output c g;
  check_true "fixed after marking output" (Netlist.Circuit.validate c = [])

let circuit_copy_independent () =
  let c = tiny_circuit () in
  let c2 = Netlist.Circuit.copy c in
  check_int "same size" (Netlist.Circuit.size c) (Netlist.Circuit.size c2);
  close "same area" (Netlist.Circuit.total_area c) (Netlist.Circuit.total_area c2);
  let n1 = Test_util.find_exn c ~name:"n1" in
  let bigger = Cells.Library.cell_exn lib ~fn:(Cells.Fn.And 2) ~drive_index:5 in
  Netlist.Circuit.set_cell c2 n1 bigger;
  check_true "copies are independent"
    (not
       (Cells.Cell.equal (Netlist.Circuit.cell_exn c n1)
          (Netlist.Circuit.cell_exn c2 n1)))

let circuit_copy_simulates_identically () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:4 () in
  let c2 = Netlist.Circuit.copy c in
  for v = 0 to 40 do
    let ins =
      bits_of_int ~prefix:"a" ~width:4 (v mod 16)
      @ bits_of_int ~prefix:"b" ~width:4 (v * 3 mod 16)
      @ [ ("cin", v mod 2 = 1) ]
    in
    Alcotest.(check (list (pair string bool)))
      "same outputs"
      (Netlist.Simulate.run c ~inputs:ins)
      (Netlist.Simulate.run c2 ~inputs:ins)
  done

(* ---- Levelize ----------------------------------------------------------- *)

let levelize_chain () =
  let bld = Netlist.Build.create ~lib ~name:"chain" () in
  let a = Netlist.Build.input bld ~name:"a" in
  let x1 = Netlist.Build.not_ bld a in
  let x2 = Netlist.Build.not_ bld x1 in
  let x3 = Netlist.Build.not_ bld x2 in
  ignore (Netlist.Build.output bld x3);
  let c = Netlist.Build.finish bld in
  let levels = Netlist.Levelize.levels c in
  check_int "input level" 0 levels.(a);
  check_int "x3 level" 3 levels.(x3);
  check_int "depth" 3 (Netlist.Levelize.depth c);
  let by_level = Netlist.Levelize.by_level c in
  check_int "4 levels" 4 (Array.length by_level);
  check_int "one node per level" 1 (List.length by_level.(2))

let levelize_tiny () =
  let c = tiny_circuit () in
  check_int "depth 2" 2 (Netlist.Levelize.depth c);
  let od = Netlist.Levelize.output_depths c in
  check_int "one output" 1 (List.length od)

(* ---- Cone --------------------------------------------------------------- *)

let cone_tfi_tfo () =
  let c = tiny_circuit () in
  let n1 = Test_util.find_exn c ~name:"n1" in
  let n2 = Test_util.find_exn c ~name:"n2" in
  let n3 = Test_util.find_exn c ~name:"n3" in
  Alcotest.(check (list int)) "tfi of n3" [ n1; n2 ]
    (Netlist.Cone.transitive_fanin c n3 ~depth:2);
  Alcotest.(check (list int)) "tfo of n1" [ n3 ]
    (Netlist.Cone.transitive_fanout c n1 ~depth:2);
  Alcotest.(check (list int)) "tfi depth 0" []
    (Netlist.Cone.transitive_fanin c n3 ~depth:0)

let cone_extract () =
  let c = tiny_circuit () in
  let n1 = Test_util.find_exn c ~name:"n1" in
  let n3 = Test_util.find_exn c ~name:"n3" in
  let sub = Netlist.Cone.extract c ~pivot:n1 ~depth:2 in
  check_int "pivot" n1 sub.Netlist.Cone.pivot;
  Alcotest.(check (list int)) "members include pivot chain" [ n1; n3 ]
    (Array.to_list sub.Netlist.Cone.members);
  check_true "n2 is boundary"
    (List.mem (Test_util.find_exn c ~name:"n2") sub.Netlist.Cone.boundary_inputs);
  Alcotest.(check (list int)) "window outputs" [ n3 ] sub.Netlist.Cone.window_outputs

let cone_extract_input_rejected () =
  let c = tiny_circuit () in
  let a = Test_util.find_exn c ~name:"a" in
  Alcotest.check_raises "pivot must be a gate"
    (Invalid_argument "Cone.extract: pivot is a primary input") (fun () ->
      ignore (Netlist.Cone.extract c ~pivot:a ~depth:2))

let cone_input_cone () =
  let c = tiny_circuit () in
  let n3 = Test_util.find_exn c ~name:"n3" in
  check_int "full cone = whole circuit" (Netlist.Circuit.size c)
    (List.length (Netlist.Cone.input_cone c n3))

(* ---- Build -------------------------------------------------------------- *)

let build_wide_gates_simulate () =
  let widths = [ 2; 3; 4; 5; 7; 9; 13 ] in
  List.iter
    (fun width ->
      let bld = Netlist.Build.create ~lib ~name:(Printf.sprintf "wide%d" width) () in
      let ins = Netlist.Build.inputs bld ~prefix:"i" ~count:width in
      let and_o = Netlist.Build.and_ bld (Array.to_list ins) in
      let or_o = Netlist.Build.or_ bld (Array.to_list ins) in
      let xor_o = Netlist.Build.xor bld (Array.to_list ins) in
      let nand_o = Netlist.Build.nand bld (Array.to_list ins) in
      let nor_o = Netlist.Build.nor bld (Array.to_list ins) in
      ignore (Netlist.Build.output ~name:"o_and" bld and_o);
      ignore (Netlist.Build.output ~name:"o_or" bld or_o);
      ignore (Netlist.Build.output ~name:"o_xor" bld xor_o);
      ignore (Netlist.Build.output ~name:"o_nand" bld nand_o);
      ignore (Netlist.Build.output ~name:"o_nor" bld nor_o);
      let c = Netlist.Build.finish bld in
      let rng = Numerics.Rng.create ~seed:width in
      for _ = 1 to 50 do
        let v = Numerics.Rng.int rng ~bound:(1 lsl width) in
        let bits = List.init width (fun i -> v land (1 lsl i) <> 0) in
        let ins =
          List.mapi (fun i b -> (Printf.sprintf "i%d" i, b)) bits
        in
        let outs = Netlist.Simulate.run c ~inputs:ins in
        let all = List.for_all Fun.id bits and any = List.exists Fun.id bits in
        let parity = List.fold_left (fun acc b -> acc <> b) false bits in
        check_true "and" (List.assoc "o_and" outs = all);
        check_true "or" (List.assoc "o_or" outs = any);
        check_true "xor" (List.assoc "o_xor" outs = parity);
        check_true "nand" (List.assoc "o_nand" outs = not all);
        check_true "nor" (List.assoc "o_nor" outs = not any)
      done)
    widths

let build_fresh_names_unique () =
  let bld = Netlist.Build.create ~lib ~name:"fresh" () in
  let names = List.init 100 (fun _ -> Netlist.Build.fresh bld "n") in
  check_int "unique" 100 (List.length (List.sort_uniq String.compare names))

let build_mux () =
  let bld = Netlist.Build.create ~lib ~name:"m" () in
  let a = Netlist.Build.input bld ~name:"a" in
  let b = Netlist.Build.input bld ~name:"b" in
  let s = Netlist.Build.input bld ~name:"s" in
  let m = Netlist.Build.mux2 bld ~sel:s ~a ~b in
  ignore (Netlist.Build.output ~name:"o" bld m);
  let c = Netlist.Build.finish bld in
  let run a_v b_v s_v =
    List.assoc "o"
      (Netlist.Simulate.run c ~inputs:[ ("a", a_v); ("b", b_v); ("s", s_v) ])
  in
  check_true "sel=0 -> a" (run true false false = true);
  check_true "sel=1 -> b" (run true false true = false)

(* ---- Bench_io ----------------------------------------------------------- *)

let bench_sample = {|
# a tiny sample
INPUT(i0)
INPUT(i1)
INPUT(i2)
OUTPUT(o0)
n1 = NAND(i0, i1)
n2 = NOT(i2)
o0 = OR(n1, n2)
|}

let bench_parse_sample () =
  let c = Netlist.Bench_io.of_string ~lib bench_sample in
  check_int "inputs" 3 (List.length (Netlist.Circuit.inputs c));
  check_int "outputs" 1 (List.length (Netlist.Circuit.outputs c));
  check_int "gates" 3 (Netlist.Circuit.gate_count c);
  let outs =
    Netlist.Simulate.run c
      ~inputs:[ ("i0", true); ("i1", true); ("i2", true) ]
  in
  check_true "nand(1,1) | not(1) = false" (List.assoc "o0" outs = false)

let bench_out_of_order () =
  let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = NOT(a)\n" in
  let c = Netlist.Bench_io.of_string ~lib text in
  check_int "two gates" 2 (Netlist.Circuit.gate_count c);
  let outs = Netlist.Simulate.run c ~inputs:[ ("a", true) ] in
  check_true "double inversion" (List.assoc "y" outs = true)

let bench_wide_gate_decomposition () =
  let text =
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nOUTPUT(y)\n\
     y = AND(a, b, c, d, e, f)\n"
  in
  let c = Netlist.Bench_io.of_string ~lib text in
  check_true "decomposed into a tree" (Netlist.Circuit.gate_count c >= 2);
  let all_true = List.map (fun n -> (n, true)) [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  check_true "wide and true"
    (List.assoc "y" (Netlist.Simulate.run c ~inputs:all_true));
  let one_false = ("c", false) :: List.remove_assoc "c" all_true in
  check_true "wide and false"
    (not (List.assoc "y" (Netlist.Simulate.run c ~inputs:one_false)))

let bench_errors () =
  let expect_error text =
    try
      ignore (Netlist.Bench_io.of_string ~lib text);
      Alcotest.fail "expected parse error"
    with Netlist.Bench_io.Parse_error _ -> ()
  in
  expect_error "INPUT(a)\nOUTPUT(y)\ny = NOT(zz)\n";
  expect_error "INPUT(a)\nOUTPUT(y)\ny = FOO(a)\n";
  expect_error "INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = NOT(y)\n";
  expect_error "INPUT(a)\nOUTPUT(y)\ny = NOT(a\n"

let bench_roundtrip () =
  let c = Benchgen.Alu.generate ~lib ~bits:4 () in
  let text = Netlist.Bench_io.to_string c in
  let c2 = Netlist.Bench_io.of_string ~lib ~name:"roundtrip" text in
  check_int "gates preserved" (Netlist.Circuit.gate_count c)
    (Netlist.Circuit.gate_count c2);
  check_int "outputs preserved"
    (List.length (Netlist.Circuit.outputs c))
    (List.length (Netlist.Circuit.outputs c2));
  (* functional equivalence on random vectors *)
  let rng = Numerics.Rng.create ~seed:17 in
  for _ = 1 to 60 do
    let ins =
      bits_of_int ~prefix:"a" ~width:4 (Numerics.Rng.int rng ~bound:16)
      @ bits_of_int ~prefix:"b" ~width:4 (Numerics.Rng.int rng ~bound:16)
      @ [ ("cin", Numerics.Rng.bool rng); ("op0", Numerics.Rng.bool rng);
          ("op1", Numerics.Rng.bool rng) ]
    in
    let o1 = Netlist.Simulate.run c ~inputs:ins in
    let o2 = Netlist.Simulate.run c2 ~inputs:ins in
    Alcotest.(check (list (pair string bool))) "same function" o1 o2
  done

(* ---- Simulate ----------------------------------------------------------- *)

let simulate_input_validation () =
  let c = tiny_circuit () in
  (try
     ignore (Netlist.Simulate.run c ~inputs:[ ("a", true) ]);
     Alcotest.fail "expected missing input error"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Netlist.Simulate.run c
          ~inputs:[ ("a", true); ("b", true); ("zz", true) ]);
     Alcotest.fail "expected unknown input error"
   with Invalid_argument _ -> ());
  try
    ignore
      (Netlist.Simulate.run c ~inputs:[ ("a", true); ("b", true); ("n1", true) ]);
    Alcotest.fail "expected non-input error"
  with Invalid_argument _ -> ()

let simulate_read_unsigned () =
  let outs = [ ("sum0", true); ("sum1", false); ("sum2", true); ("cout", true) ] in
  check_int "little endian" 5 (Netlist.Simulate.read_unsigned outs ~prefix:"sum")

(* ---- Metrics ------------------------------------------------------------ *)

let metrics_tiny () =
  let m = Netlist.Metrics.compute (tiny_circuit ()) in
  check_int "inputs" 3 m.Netlist.Metrics.input_count;
  check_int "outputs" 1 m.Netlist.Metrics.output_count;
  check_int "gates" 3 m.Netlist.Metrics.gate_count;
  check_int "depth" 2 m.Netlist.Metrics.depth;
  check_true "area positive" (m.Netlist.Metrics.area > 0.0);
  check_int "histogram entries" 3 (List.length m.Netlist.Metrics.fn_histogram)

let () =
  Alcotest.run "netlist"
    [
      ( "circuit",
        [
          Alcotest.test_case "construction" `Quick circuit_construction;
          Alcotest.test_case "duplicate name" `Quick circuit_duplicate_name;
          Alcotest.test_case "arity mismatch" `Quick circuit_arity_mismatch;
          Alcotest.test_case "forward reference" `Quick circuit_forward_reference;
          Alcotest.test_case "set_cell function check" `Quick
            circuit_set_cell_checks_function;
          Alcotest.test_case "set_cell resizes" `Quick circuit_set_cell_resizes;
          Alcotest.test_case "load" `Quick circuit_load;
          Alcotest.test_case "topological property" `Quick
            circuit_topological_property;
          Alcotest.test_case "validate dangling" `Quick circuit_validate_dangling;
          Alcotest.test_case "copy independent" `Quick circuit_copy_independent;
          Alcotest.test_case "copy simulates identically" `Quick
            circuit_copy_simulates_identically;
        ] );
      ( "levelize",
        [
          Alcotest.test_case "chain" `Quick levelize_chain;
          Alcotest.test_case "tiny" `Quick levelize_tiny;
        ] );
      ( "cone",
        [
          Alcotest.test_case "tfi/tfo" `Quick cone_tfi_tfo;
          Alcotest.test_case "extract" `Quick cone_extract;
          Alcotest.test_case "input pivot rejected" `Quick
            cone_extract_input_rejected;
          Alcotest.test_case "input cone" `Quick cone_input_cone;
        ] );
      ( "build",
        [
          Alcotest.test_case "wide gates simulate" `Quick build_wide_gates_simulate;
          Alcotest.test_case "fresh names unique" `Quick build_fresh_names_unique;
          Alcotest.test_case "mux" `Quick build_mux;
        ] );
      ( "bench_io",
        [
          Alcotest.test_case "parse sample" `Quick bench_parse_sample;
          Alcotest.test_case "out of order defs" `Quick bench_out_of_order;
          Alcotest.test_case "wide gate decomposition" `Quick
            bench_wide_gate_decomposition;
          Alcotest.test_case "errors" `Quick bench_errors;
          Alcotest.test_case "roundtrip" `Quick bench_roundtrip;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "input validation" `Quick simulate_input_validation;
          Alcotest.test_case "read_unsigned" `Quick simulate_read_unsigned;
        ] );
      ("metrics", [ Alcotest.test_case "tiny" `Quick metrics_tiny ]);
    ]
