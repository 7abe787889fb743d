(* Functional correctness of the benchmark generators: every arithmetic
   block is checked against its integer specification. *)

open Test_util

let input_vector ~widths v_of =
  List.concat_map (fun (prefix, width) -> bits_of_int ~prefix ~width (v_of prefix))
    widths

(* ---- adders ------------------------------------------------------------- *)

let check_adder c ~bits a b cin =
  let ins =
    bits_of_int ~prefix:"a" ~width:bits a
    @ bits_of_int ~prefix:"b" ~width:bits b
    @ [ ("cin", cin = 1) ]
  in
  let outs = Netlist.Simulate.run c ~inputs:ins in
  let sum = Netlist.Simulate.read_unsigned outs ~prefix:"sum" in
  let cout = if List.assoc "cout" outs then 1 else 0 in
  let got = sum + (cout lsl bits) in
  if got <> a + b + cin then
    Alcotest.failf "adder %d+%d+%d: expected %d, got %d" a b cin (a + b + cin) got

let ripple_exhaustive_small () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:3 () in
  for a = 0 to 7 do
    for b = 0 to 7 do
      check_adder c ~bits:3 a b 0;
      check_adder c ~bits:3 a b 1
    done
  done

let ripple_random_wide () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:12 () in
  let rng = Numerics.Rng.create ~seed:1 in
  for _ = 1 to 200 do
    check_adder c ~bits:12
      (Numerics.Rng.int rng ~bound:4096)
      (Numerics.Rng.int rng ~bound:4096)
      (Numerics.Rng.int rng ~bound:2)
  done

let carry_select_matches_spec () =
  List.iter
    (fun (bits, block) ->
      let c = Benchgen.Adder.carry_select ~lib ~bits ~block () in
      let rng = Numerics.Rng.create ~seed:(bits * 10 + block) in
      for _ = 1 to 150 do
        check_adder c ~bits
          (Numerics.Rng.int rng ~bound:(1 lsl bits))
          (Numerics.Rng.int rng ~bound:(1 lsl bits))
          (Numerics.Rng.int rng ~bound:2)
      done)
    [ (4, 2); (8, 4); (11, 3) ]

let carry_select_is_shallower () =
  let rca = Benchgen.Adder.ripple_carry ~lib ~bits:16 () in
  let csa = Benchgen.Adder.carry_select ~lib ~bits:16 ~block:4 () in
  check_true "carry select shallower"
    (Netlist.Levelize.depth csa < Netlist.Levelize.depth rca);
  check_true "carry select larger"
    (Netlist.Circuit.total_area csa > Netlist.Circuit.total_area rca)

let adder_rejects_zero_bits () =
  try
    ignore (Benchgen.Adder.ripple_carry ~lib ~bits:0 ());
    Alcotest.fail "expected failure"
  with Invalid_argument _ -> ()

(* ---- multiplier --------------------------------------------------------- *)

let multiplier_exhaustive_4x4 () =
  let c = Benchgen.Multiplier.generate ~lib ~bits:4 () in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let ins =
        bits_of_int ~prefix:"a" ~width:4 a @ bits_of_int ~prefix:"b" ~width:4 b
      in
      let outs = Netlist.Simulate.run c ~inputs:ins in
      let p = Netlist.Simulate.read_unsigned outs ~prefix:"p" in
      if p <> a * b then Alcotest.failf "4x4 mult %d*%d: got %d" a b p
    done
  done

let multiplier_random_8x8 () =
  let c = Benchgen.Multiplier.generate ~lib ~bits:8 () in
  let rng = Numerics.Rng.create ~seed:8 in
  for _ = 1 to 200 do
    let a = Numerics.Rng.int rng ~bound:256 in
    let b = Numerics.Rng.int rng ~bound:256 in
    let ins =
      bits_of_int ~prefix:"a" ~width:8 a @ bits_of_int ~prefix:"b" ~width:8 b
    in
    let outs = Netlist.Simulate.run c ~inputs:ins in
    let p = Netlist.Simulate.read_unsigned outs ~prefix:"p" in
    if p <> a * b then Alcotest.failf "8x8 mult %d*%d: got %d" a b p
  done

let multiplier_structure () =
  let c = Benchgen.Multiplier.generate ~lib ~bits:16 () in
  check_int "2n product bits" 32 (List.length (Netlist.Circuit.outputs c));
  check_true "deepest circuit in the suite" (Netlist.Levelize.depth c > 60);
  check_true "validates" (Netlist.Circuit.validate c = [])

let multiplier_1x1 () =
  let c = Benchgen.Multiplier.generate ~lib ~bits:1 () in
  let outs = Netlist.Simulate.run c ~inputs:[ ("a0", true); ("b0", true) ] in
  check_true "1*1=1" (List.assoc "p0" outs)

(* ---- ALU ---------------------------------------------------------------- *)

let alu_ops () =
  let bits = 6 in
  let c = Benchgen.Alu.generate ~lib ~bits () in
  let rng = Numerics.Rng.create ~seed:6 in
  let mask = (1 lsl bits) - 1 in
  for _ = 1 to 300 do
    let a = Numerics.Rng.int rng ~bound:(mask + 1) in
    let b = Numerics.Rng.int rng ~bound:(mask + 1) in
    let cin = Numerics.Rng.int rng ~bound:2 in
    let op = Numerics.Rng.int rng ~bound:4 in
    let ins =
      bits_of_int ~prefix:"a" ~width:bits a
      @ bits_of_int ~prefix:"b" ~width:bits b
      @ [ ("cin", cin = 1); ("op0", op land 1 <> 0); ("op1", op land 2 <> 0) ]
    in
    let outs = Netlist.Simulate.run c ~inputs:ins in
    let f = Netlist.Simulate.read_unsigned outs ~prefix:"f" in
    let expected =
      match op with
      | 0 -> (a + b + cin) land mask
      | 1 -> a land b
      | 2 -> a lor b
      | 3 -> a lxor b
      | _ -> assert false
    in
    if f <> expected then
      Alcotest.failf "alu op %d on %d,%d,cin=%d: expected %d got %d" op a b cin
        expected f;
    (* flags *)
    check_true "zero flag" (List.assoc "zero" outs = (expected = 0));
    if op = 0 then
      check_true "cout" (List.assoc "cout" outs = (a + b + cin > mask))
  done

let alu_without_zero_flag () =
  let c = Benchgen.Alu.generate ~zero_flag:false ~lib ~bits:4 () in
  check_true "no zero output" (Netlist.Circuit.find c ~name:"zero" = None)

(* ---- ECC ---------------------------------------------------------------- *)

let ecc_corrects_single_errors style =
  let data_bits = 11 in
  let r = Benchgen.Ecc.check_bit_count ~data_bits in
  let c = Benchgen.Ecc.hamming_corrector ~style ~lib ~data_bits () in
  let enc = Benchgen.Ecc.hamming_encoder ~style ~lib ~data_bits () in
  let rng = Numerics.Rng.create ~seed:11 in
  for _ = 1 to 40 do
    let word = Numerics.Rng.int rng ~bound:(1 lsl data_bits) in
    (* encode *)
    let checks =
      Netlist.Simulate.run enc ~inputs:(bits_of_int ~prefix:"d" ~width:data_bits word)
    in
    let check_val = Netlist.Simulate.read_unsigned checks ~prefix:"c" in
    (* no error: corrector returns the word *)
    let decode data_v =
      let ins =
        bits_of_int ~prefix:"d" ~width:data_bits data_v
        @ bits_of_int ~prefix:"c" ~width:r check_val
      in
      Netlist.Simulate.read_unsigned (Netlist.Simulate.run c ~inputs:ins) ~prefix:"o"
    in
    check_int "clean word decodes" word (decode word);
    (* flip each data bit in turn: must be corrected *)
    for bit = 0 to data_bits - 1 do
      check_int
        (Printf.sprintf "bit %d corrected" bit)
        word
        (decode (word lxor (1 lsl bit)))
    done
  done

let ecc_native () = ecc_corrects_single_errors Benchgen.Ecc.Native
let ecc_nand4 () = ecc_corrects_single_errors Benchgen.Ecc.Nand4

let ecc_nand4_bigger_and_deeper () =
  let native = Benchgen.Ecc.hamming_corrector ~style:Benchgen.Ecc.Native ~lib ~data_bits:32 () in
  let nand4 = Benchgen.Ecc.hamming_corrector ~style:Benchgen.Ecc.Nand4 ~lib ~data_bits:32 () in
  check_true "nand expansion has more gates"
    (Netlist.Circuit.gate_count nand4 > Netlist.Circuit.gate_count native);
  check_true "nand expansion is deeper"
    (Netlist.Levelize.depth nand4 > Netlist.Levelize.depth native)

let ecc_check_bits () =
  check_int "11 data -> 4 checks" 4 (Benchgen.Ecc.check_bit_count ~data_bits:11);
  check_int "32 data -> 6 checks" 6 (Benchgen.Ecc.check_bit_count ~data_bits:32);
  check_int "4 data -> 3 checks" 3 (Benchgen.Ecc.check_bit_count ~data_bits:4)

(* ---- random DAG ---------------------------------------------------------- *)

let random_dag_deterministic () =
  let profile =
    { Benchgen.Random_dag.profile_name = "rd"; inputs = 12; outputs = 5;
      gates = 80; depth = 9; seed = 99 }
  in
  let c1 = Benchgen.Random_dag.generate ~lib profile in
  let c2 = Benchgen.Random_dag.generate ~lib profile in
  check_int "same size" (Netlist.Circuit.size c1) (Netlist.Circuit.size c2);
  Alcotest.(check string) "same bench text" (Netlist.Bench_io.to_string c1)
    (Netlist.Bench_io.to_string c2)

let random_dag_profile_respected () =
  let profile =
    { Benchgen.Random_dag.profile_name = "rd2"; inputs = 20; outputs = 8;
      gates = 150; depth = 12; seed = 5 }
  in
  let c = Benchgen.Random_dag.generate ~lib profile in
  check_int "inputs exact" 20 (List.length (Netlist.Circuit.inputs c));
  check_int "depth exact" 12 (Netlist.Levelize.depth c);
  check_true "gate count near target"
    (abs (Netlist.Circuit.gate_count c - 150) < 40);
  check_true "validates" (Netlist.Circuit.validate c = [])

let random_dag_rejects_bad_profiles () =
  let bad = { Benchgen.Random_dag.profile_name = "bad"; inputs = 1; outputs = 1;
              gates = 10; depth = 2; seed = 0 } in
  try
    ignore (Benchgen.Random_dag.generate ~lib bad);
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

(* ---- suite --------------------------------------------------------------- *)

let suite_builds_and_validates () =
  List.iter
    (fun name ->
      let c = Benchgen.Iscas_like.build_exn ~lib name in
      check_true (name ^ " validates") (Netlist.Circuit.validate c = []);
      check_true (name ^ " nonempty") (Netlist.Circuit.gate_count c > 50))
    Benchgen.Iscas_like.names

let suite_depth_ordering () =
  let depth name = Netlist.Levelize.depth (Benchgen.Iscas_like.build_exn ~lib name) in
  (* the multiplier is by far the deepest; the SEC corrector the shallowest *)
  let d6288 = depth "c6288" and d499 = depth "c499" and dalu2 = depth "alu2" in
  check_true "c6288 deepest" (d6288 > 2 * dalu2);
  check_true "c499 shallow" (d499 < dalu2)

let suite_unknown_name () =
  try
    ignore (Benchgen.Iscas_like.build_exn ~lib "c17");
    Alcotest.fail "expected failure"
  with Invalid_argument _ -> ()

let () =
  ignore input_vector;
  Alcotest.run "benchgen"
    [
      ( "adders",
        [
          Alcotest.test_case "ripple exhaustive 3b" `Quick ripple_exhaustive_small;
          Alcotest.test_case "ripple random 12b" `Quick ripple_random_wide;
          Alcotest.test_case "carry select spec" `Quick carry_select_matches_spec;
          Alcotest.test_case "carry select shape" `Quick carry_select_is_shallower;
          Alcotest.test_case "zero bits rejected" `Quick adder_rejects_zero_bits;
        ] );
      ( "multiplier",
        [
          Alcotest.test_case "exhaustive 4x4" `Quick multiplier_exhaustive_4x4;
          Alcotest.test_case "random 8x8" `Quick multiplier_random_8x8;
          Alcotest.test_case "structure 16x16" `Quick multiplier_structure;
          Alcotest.test_case "1x1" `Quick multiplier_1x1;
        ] );
      ( "alu",
        [
          Alcotest.test_case "all ops" `Quick alu_ops;
          Alcotest.test_case "no zero flag" `Quick alu_without_zero_flag;
        ] );
      ( "ecc",
        [
          Alcotest.test_case "corrects single errors (native)" `Quick ecc_native;
          Alcotest.test_case "corrects single errors (nand4)" `Quick ecc_nand4;
          Alcotest.test_case "nand4 bigger/deeper" `Quick ecc_nand4_bigger_and_deeper;
          Alcotest.test_case "check bit count" `Quick ecc_check_bits;
        ] );
      ( "random_dag",
        [
          Alcotest.test_case "deterministic" `Quick random_dag_deterministic;
          Alcotest.test_case "profile respected" `Quick random_dag_profile_respected;
          Alcotest.test_case "bad profiles rejected" `Quick
            random_dag_rejects_bad_profiles;
        ] );
      ( "suite",
        [
          Alcotest.test_case "builds and validates" `Quick suite_builds_and_validates;
          Alcotest.test_case "depth ordering" `Quick suite_depth_ordering;
          Alcotest.test_case "unknown name" `Quick suite_unknown_name;
        ] );
    ]
