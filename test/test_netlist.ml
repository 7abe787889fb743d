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

(* Every bad .bench ends in a [Parse_error] carrying its code and line:
   syntax, operators, references and cycles, and also the three inputs
   that once escaped as [Invalid_argument] — a repeated INPUT, an '='
   after the '(' and the structural check's refusal (its first finding,
   at the gate's definition line; line 0 for a finding about the whole
   circuit). *)
let bench_errors () =
  let expect_error (code, line) text =
    match Netlist.Bench_io.of_string ~lib text with
    | _ -> Alcotest.failf "expected a parse error in %S" text
    | exception Netlist.Bench_io.Parse_error e ->
        Alcotest.(check (pair string int)) text (code, line) (e.code, e.line)
  in
  expect_error ("CIRC003", 3) "INPUT(a)\nOUTPUT(y)\ny = NOT(zz)\n";
  expect_error ("BENCH002", 3) "INPUT(a)\nOUTPUT(y)\ny = FOO(a)\n";
  expect_error ("CIRC001", 3) "INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = NOT(y)\n";
  expect_error ("BENCH001", 3) "INPUT(a)\nOUTPUT(y)\ny = NOT(a\n";
  expect_error ("CIRC002", 3) "INPUT(a)\nINPUT(b)\nINPUT(a)\nOUTPUT(y)\ny = AND(a, b)\n";
  expect_error ("BENCH001", 2) "INPUT(a)\nOUTPUT(x=y)\ny = NOT(a)\n";
  expect_error ("CIRC004", 4) "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nu = NOT(a)\n";
  expect_error ("CIRC008", 0) "INPUT(a)\n";
  expect_error ("CIRC008", 0) ""

(* A gate named like a decomposition node ([AND4_0]) keeps its name and
   its function whichever line comes first: names resolve through the
   file's own table, and the decomposition's fresh names skip every name
   the file defines. Before, with the wide gate first, [OUTPUT(AND4_0)]
   was wired to the decomposition's internal AND4 and the inverter was
   dropped. *)
let bench_decomposition_names () =
  let header =
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nOUTPUT(x)\nOUTPUT(AND4_0)\n"
  in
  let wide = "x = AND(a, b, c, d, e)\n" and inverter = "AND4_0 = NOT(a)\n" in
  let wide_first = Netlist.Bench_io.of_string ~lib (header ^ wide ^ inverter) in
  let inverter_first = Netlist.Bench_io.of_string ~lib (header ^ inverter ^ wide) in
  List.iter
    (fun (what, c) ->
      check_int (what ^ ": gates") 3 (Netlist.Circuit.gate_count c);
      check_true (what ^ ": AND4_0 is an inverter")
        (Cells.Fn.equal Cells.Fn.Inv
           (Cells.Cell.fn (Netlist.Circuit.cell_exn c (find_exn c ~name:"AND4_0")))))
    [ ("wide gate first", wide_first); ("inverter first", inverter_first) ];
  let names = [ "a"; "b"; "c"; "d"; "e" ] in
  for v = 0 to 31 do
    let inputs = List.mapi (fun i n -> (n, v land (1 lsl i) <> 0)) names in
    let want = [ ("x", v = 31); ("AND4_0", v land 1 = 0) ] in
    Alcotest.(check (list (pair string bool)))
      (Printf.sprintf "wide gate first, vector %d" v)
      want
      (Netlist.Simulate.run wide_first ~inputs);
    Alcotest.(check (list (pair string bool)))
      (Printf.sprintf "inverter first, vector %d" v)
      want
      (Netlist.Simulate.run inverter_first ~inputs)
  done

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

(* One read of serve-mixed's first fresh payload (1,620 nodes) allocates
   at most 120k words: the circuit, its names and the scanner's arrays.
   The line-list reader it replaced allocated 250k. *)
let bench_allocation_pin () =
  let text = Lazy.force payload_text.(0) in
  ignore (Netlist.Bench_io.of_string ~lib text);
  let c, words =
    allocated_words (fun () -> Netlist.Bench_io.of_string ~lib text)
  in
  check_int "nodes" 1620 (Netlist.Circuit.size c);
  if words > 120_000.0 then
    Alcotest.failf "of_string allocated %.0f words (pin: 120,000)" words

(* ---- the scanner against the old reader ---------------------------------

   [Bench_oracle] is the line-list reader and lint pass the scanner
   replaced, verbatim. On the 13 suite circuits, serve-mixed's 8 payloads,
   mutations of them and random text, both give the same circuit (its
   .bench text and cells) or the same error, apart from four differences,
   each named in [allowed_difference]. No exception but [Parse_error]
   leaves the scanner. *)

type outcome =
  | Read of Netlist.Circuit.t * string
  | Refused of int * string * string (* line, code, message *)
  | Raised of string

let render c =
  Netlist.Bench_io.to_string c
  ^ String.concat ","
      (List.map
         (fun id -> Cells.Cell.name (Netlist.Circuit.cell_exn c id))
         (Netlist.Circuit.gates c))

let outcome read text =
  match read text with
  | c -> Read (c, render c)
  | exception Netlist.Bench_io.Parse_error { line; code; message } ->
      Refused (line, code, message)
  | exception e -> Raised (Printexc.to_string e)

let same_outcome a b =
  match (a, b) with
  | Read (_, x), Read (_, y) -> String.equal x y
  | Read _, _ | _, Read _ -> false
  | _ -> a = b

let show = function
  | Read (c, _) -> Printf.sprintf "a circuit of %d nodes" (Netlist.Circuit.size c)
  | Refused (line, code, message) -> Printf.sprintf "%s at line %d: %s" code line message
  | Raised e -> "raised " ^ e

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* A name [Build.fresh] may make: a cell function's name, '_', digits. *)
let fresh_shaped name =
  match String.rindex_opt name '_' with
  | None -> false
  | Some i ->
      let digits = String.sub name (i + 1) (String.length name - i - 1) in
      digits <> ""
      && String.for_all (fun c -> c >= '0' && c <= '9') digits
      && List.exists
           (fun fn -> Cells.Fn.name fn = String.sub name 0 i)
           (Cells.Library.functions lib)

let names_fresh_shaped text =
  List.exists fresh_shaped
    (String.split_on_char ' '
       (String.map
          (function
            | '\n' | '\r' | '\t' | '\012' | ',' | '(' | ')' | '=' | '#' -> ' '
            | c -> c)
          text))

(* The differences the scanner makes on purpose. *)
let allowed_difference text ~old_o ~new_o =
  match (old_o, new_o) with
  | Raised e, Refused (_, "CIRC002", message)
    when String.starts_with ~prefix:"Invalid_argument(\"Circuit: duplicate node name" e
         && contains message "repeated" ->
      Some "repeated INPUT: CIRC002, not Invalid_argument"
  | Raised "Invalid_argument(\"String.sub / Bytes.sub\")", Refused (_, "BENCH001", message)
    when contains message "misplaced '='" ->
      Some "'=' after '(': BENCH001, not Invalid_argument"
  | Raised e, Refused (_, code, message)
    when String.starts_with ~prefix:"Invalid_argument(\"Build.finish" e
         && contains e ("[" ^ code ^ "]")
         && contains e (String.escaped message) ->
      Some "structural refusal: its first finding, not Invalid_argument"
  | _, (Read _ | Refused _) when names_fresh_shaped text -> (
      (* the file names a node the way a decomposition does: the old
         reader could resolve a reference to a decomposition's internal
         node, or drop a gate of that name; the scanner keeps every name
         the file defines *)
      match (new_o, Bench_oracle.parse_text text) with
      | Read (c, _), parsed ->
          let defined =
            List.map fst parsed.Bench_oracle.inputs @ parsed.Bench_oracle.def_order
          in
          if List.for_all (fun n -> Netlist.Circuit.find c ~name:n <> None) defined
          then Some "decomposition name: the file's own nodes kept"
          else None
      | Refused _, _ -> Some "decomposition name: a reference resolves to the file only"
      | _ -> None
      | exception _ -> None)
  | _ -> None

let check_against_oracle text =
  let old_o = outcome (Bench_oracle.of_string ~lib) text in
  let new_o = outcome (Netlist.Bench_io.of_string ~lib) text in
  (match new_o with
  | Raised e -> QCheck.Test.fail_reportf "of_string raised %s" e
  | _ -> ());
  same_outcome old_o new_o
  || allowed_difference text ~old_o ~new_o <> None
  || QCheck.Test.fail_reportf "old: %s\nnew: %s" (show old_o) (show new_o)

let render_diags ds = List.map Diag.to_string ds

(* Lint gives the old lint's diagnostics, apart from two named
   differences: a repeated INPUT is reported (CIRC002), and an '=' after
   the '(' is a BENCH001 diagnostic where the old pass raised. Lint finds
   nothing exactly when the unvalidated read succeeds, and otherwise it
   reports the read's error code. *)
let check_lint_against_oracle text =
  let new_d = render_diags (Netlist.Bench_io.lint text) in
  (match Bench_oracle.lint text with
  | old_d ->
      let kept = List.filter (fun d -> not (contains d "repeated (first at line")) new_d in
      if render_diags old_d <> kept then
        QCheck.Test.fail_reportf "old lint:\n%s\nnew lint:\n%s"
          (String.concat "\n" (render_diags old_d))
          (String.concat "\n" new_d)
  | exception Invalid_argument m when m = "String.sub / Bytes.sub" ->
      if not (List.exists (fun d -> contains d "misplaced '='") new_d) then
        QCheck.Test.fail_report "old lint raised on '=' after '('; new lint is silent");
  (match Netlist.Bench_io.of_string ~validate:false ~lib text with
  | _ ->
      if new_d <> [] then
        QCheck.Test.fail_reportf "lint reports %s, the read succeeds" (List.hd new_d)
  | exception Netlist.Bench_io.Parse_error { code; _ } ->
      if not (List.exists (fun d -> contains d ("[" ^ code ^ "]")) new_d) then
        QCheck.Test.fail_reportf "the read refuses with %s, lint does not report it" code);
  true

let corpus =
  lazy
    (Array.of_list
       (List.map
          (fun name ->
            Netlist.Bench_io.to_string (Benchgen.Iscas_like.build_exn ~lib name))
          Benchgen.Iscas_like.names
       @ List.init 8 (fun i -> Lazy.force payload_text.(i))))

(* The unmutated corpus: the same circuits, and lint finds nothing. *)
let bench_oracle_corpus () =
  let texts = Lazy.force corpus in
  check_int "13 suite circuits and 8 payloads" 21 (Array.length texts);
  Array.iteri
    (fun i text ->
      let old_o = outcome (Bench_oracle.of_string ~lib) text in
      let new_o = outcome (Netlist.Bench_io.of_string ~lib) text in
      check_true (Printf.sprintf "corpus %d: %s = %s" i (show old_o) (show new_o))
        (match old_o with Read _ -> same_outcome old_o new_o | _ -> false);
      check_int (Printf.sprintf "corpus %d: lint" i) 0
        (List.length (Netlist.Bench_io.lint text)))
    texts

type mutation =
  | Delete of int
  | Duplicate of int * int
  | Swap of int * int
  | Insert of int * int * char
  | Lower of int
  | Truncate of int

let show_mutation = function
  | Delete i -> Printf.sprintf "delete %d" i
  | Duplicate (i, j) -> Printf.sprintf "duplicate %d at %d" i j
  | Swap (i, j) -> Printf.sprintf "swap %d %d" i j
  | Insert (i, p, c) -> Printf.sprintf "insert %C in %d at %d" c i p
  | Lower i -> Printf.sprintf "lower-case %d" i
  | Truncate p -> Printf.sprintf "truncate at %d" p

let mutation_gen =
  let open QCheck.Gen in
  let n = int_bound 100_000 in
  oneof
    [
      map (fun i -> Delete i) n;
      map2 (fun i j -> Duplicate (i, j)) n n;
      map2 (fun i j -> Swap (i, j)) n n;
      map3
        (fun i p c -> Insert (i, p, c))
        n n
        (oneofl [ '='; '('; ')'; ','; '#'; '\t'; '\r'; '\012' ]);
      map (fun i -> Lower i) n;
      map (fun p -> Truncate p) n;
    ]

(* The keyword of a line, lower-cased: the operator of a gate line, or
   INPUT / OUTPUT. *)
let lower_keyword line =
  match String.index_opt line '(' with
  | None -> line
  | Some lp ->
      let from = match String.index_opt line '=' with Some e when e < lp -> e + 1 | _ -> 0 in
      String.mapi (fun i c -> if i >= from && i < lp then Char.lowercase_ascii c else c) line

let mutate text mutations =
  let lines = ref (Array.of_list (String.split_on_char '\n' text)) in
  let truncate = ref None in
  List.iter
    (fun m ->
      let a = !lines in
      let n = Array.length a in
      let pick i = i mod n in
      let without i = Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (n - i - 1)) in
      let insert_at j x =
        Array.concat [ Array.sub a 0 j; [| x |]; Array.sub a j (n - j) ]
      in
      match m with
      | Delete i -> if n > 1 then lines := without (pick i)
      | Duplicate (i, j) -> lines := insert_at (j mod (n + 1)) a.(pick i)
      | Swap (i, j) ->
          let i = pick i and j = pick j in
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
      | Insert (i, p, c) ->
          let i = pick i in
          let l = a.(i) in
          let p = p mod (String.length l + 1) in
          a.(i) <- String.sub l 0 p ^ String.make 1 c ^ String.sub l p (String.length l - p)
      | Lower i -> a.(pick i) <- lower_keyword a.(pick i)
      | Truncate p -> truncate := Some p)
    mutations;
  let text = String.concat "\n" (Array.to_list !lines) in
  match !truncate with
  | None -> text
  | Some p -> String.sub text 0 (p mod (String.length text + 1))

let mutated_arb =
  QCheck.make
    ~print:(fun (k, ms) ->
      Printf.sprintf "corpus %d, %s" k (String.concat "; " (List.map show_mutation ms)))
    QCheck.Gen.(pair (int_bound 20) (list_size (int_range 1 3) mutation_gen))

let mutated (k, ms) = mutate (Lazy.force corpus).(k) ms

(* Short texts from .bench's own tokens reach deeper than random bytes. *)
let tokens_arb =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_bound 60)
           (oneofl
              [ "INPUT("; "OUTPUT("; "input("; "a"; "b"; "c"; "x"; "AND4_0"; "AND2_1";
                " = "; "="; "NAND("; "AND("; "NOT("; "XNOR("; "MUX2("; ","; ")"; "(";
                "\n"; "\n"; "\n"; "#"; " "; "\t"; "\r" ])))

let bytes_arb = QCheck.(string_gen_of_size Gen.(int_bound 200) Gen.char)

(* Each minimized crasher in fixtures/fuzz/ states its expected outcome on
   its first line: [# expect CODE LINE] or [# expect ok]. *)
let bench_fuzz_fixtures () =
  let dir = "fixtures/fuzz" in
  let files =
    List.filter (fun f -> Filename.check_suffix f ".bench") (Array.to_list (Sys.readdir dir))
  in
  check_true "fixtures present" (List.length files >= 6);
  List.iter
    (fun file ->
      let text = In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all in
      let expect = List.hd (String.split_on_char '\n' text) in
      let got =
        match Netlist.Bench_io.of_string ~lib text with
        | _ -> "# expect ok"
        | exception Netlist.Bench_io.Parse_error { line; code; _ } ->
            Printf.sprintf "# expect %s %d" code line
      in
      Alcotest.(check string) file expect got;
      ignore (Netlist.Bench_io.lint text))
    (List.sort compare files)

(* ---- Simulate ----------------------------------------------------------- *)
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
          Alcotest.test_case "decomposition names" `Quick bench_decomposition_names;
          Alcotest.test_case "roundtrip" `Quick bench_roundtrip;
          Alcotest.test_case "allocation pin" `Quick bench_allocation_pin;
        ] );
      ( "bench_oracle",
        [
          Alcotest.test_case "corpus" `Quick bench_oracle_corpus;
          qcheck ~count:200 "mutated corpus: reader" mutated_arb (fun x ->
              check_against_oracle (mutated x));
          qcheck ~count:200 "mutated corpus: lint" mutated_arb (fun x ->
              check_lint_against_oracle (mutated x));
          qcheck ~count:1000 "bench tokens: reader and lint" tokens_arb (fun t ->
              check_against_oracle t && check_lint_against_oracle t);
          qcheck ~count:1000 "random bytes: reader and lint" bytes_arb (fun t ->
              check_against_oracle t && check_lint_against_oracle t);
          Alcotest.test_case "fuzz fixtures" `Quick bench_fuzz_fixtures;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "input validation" `Quick simulate_input_validation;
          Alcotest.test_case "read_unsigned" `Quick simulate_read_unsigned;
        ] );
      ("metrics", [ Alcotest.test_case "tiny" `Quick metrics_tiny ]);
    ]
