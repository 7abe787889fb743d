(* Second-round coverage: regressions for bugs found during bring-up, and
   finer-grained checks across subsystems. *)

open Test_util

(* ---- regressions ----------------------------------------------------------- *)

(* Rng.int once truncated a 63-bit value into a negative OCaml int. *)
let rng_int_never_negative () =
  let rng = Numerics.Rng.create ~seed:0 in
  for _ = 1 to 100_000 do
    let v = Numerics.Rng.int rng ~bound:7 in
    check_true "non-negative" (v >= 0 && v < 7)
  done

(* Centroid-only re-binning used to leak ~4% variance per propagation level;
   the two-point scheme must keep sigma through long chains of operations. *)
let resample_chain_keeps_sigma () =
  let p = ref (Numerics.Discrete_pdf.of_normal ~samples:12 ~mean:10.0 ~sigma:2.0 ()) in
  let total_sigma = 2.0 *. Float.sqrt 25.0 in
  for _ = 1 to 24 do
    let arc = Numerics.Discrete_pdf.of_normal ~samples:12 ~mean:10.0 ~sigma:2.0 () in
    p := Numerics.Discrete_pdf.sum ~samples:12 !p arc
  done;
  close ~tol:0.04 "sigma after 24 sums+resamples" total_sigma
    (Numerics.Discrete_pdf.std !p)

(* The CRC quadratic is a Φ approximation; reading it as a literal erf
   polynomial produced Φ(1) ≈ 0.76. Pin the correct values. *)
let phi_quadratic_values () =
  List.iter
    (fun (x, expected) ->
      close_abs ~tol:0.006 (Printf.sprintf "phi(%g)" x) expected
        (Numerics.Normal.cdf_fast x))
    [ (0.0, 0.5); (0.5, 0.6915); (1.0, 0.8413); (1.5, 0.9332); (2.0, 0.9772);
      (2.5, 0.99); (3.0, 1.0); (-1.0, 0.1587) ]

(* Named wide gates must put the name on the tree root (a dangling duplicate
   tree used to be built on .bench import). *)
let named_wide_gate_root () =
  let bld = Netlist.Build.create ~lib ~name:"wide" () in
  let ins = Netlist.Build.inputs bld ~prefix:"i" ~count:9 in
  let root = Netlist.Build.and_ ~name:"root" bld (Array.to_list ins) in
  ignore (Netlist.Build.output bld root);
  let c = Netlist.Build.finish bld in
  Alcotest.(check string) "root carries the name" "root"
    (Netlist.Circuit.node_name c root);
  check_true "no dangling duplicates" (Netlist.Circuit.validate c = [])

(* ---- Vec -------------------------------------------------------------------- *)

let vec_grows_and_indexes () =
  let v = Netlist.Vec.create ~dummy:(-1) in
  for i = 0 to 99 do
    check_int "push returns index" i (Netlist.Vec.push v i)
  done;
  check_int "length" 100 (Netlist.Vec.length v);
  check_int "get" 57 (Netlist.Vec.get v 57);
  Netlist.Vec.set v 57 1000;
  check_int "set" 1000 (Netlist.Vec.get v 57);
  check_int "fold" (4950 + 1000 - 57) (Netlist.Vec.fold v ~init:0 ~f:( + ));
  (try
     ignore (Netlist.Vec.get v 100);
     Alcotest.fail "expected bounds failure"
   with Invalid_argument _ -> ());
  let seen = ref [] in
  Netlist.Vec.iteri v ~f:(fun i x -> if i < 3 then seen := x :: !seen);
  Alcotest.(check (list int)) "iteri order" [ 2; 1; 0 ] !seen

(* ---- levelize / bench writer ------------------------------------------------- *)

let by_level_partitions_nodes () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:5 () in
  let by_level = Netlist.Levelize.by_level c in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 by_level in
  check_int "every node in exactly one level" (Netlist.Circuit.size c) total;
  let levels = Netlist.Levelize.levels c in
  Array.iteri
    (fun lvl nodes ->
      List.iter (fun id -> check_int "level tag matches" lvl levels.(id)) nodes)
    by_level

let bench_writer_structure () =
  let c = tiny_circuit () in
  let text = Netlist.Bench_io.to_string c in
  let count needle =
    List.length
      (List.filter
         (fun line ->
           String.length line >= String.length needle
           && String.sub line 0 (String.length needle) = needle)
         (String.split_on_char '\n' text))
  in
  check_int "INPUT lines" 3 (count "INPUT(");
  check_int "OUTPUT lines" 1 (count "OUTPUT(");
  check_true "gate definitions present" (count "n1 = AND2" = 1)

(* ---- library internals -------------------------------------------------------- *)

let library_tau_and_strengths () =
  close "default tau" 5.0 (Cells.Library.tau lib);
  Alcotest.(check (array (float 0.0)))
    "strength ladder" Cells.Library.default_strengths (Cells.Library.strengths lib)

let cell_names_follow_convention () =
  List.iter
    (fun fn ->
      Array.iter
        (fun cell ->
          let name = Cells.Cell.name cell in
          let prefix = Cells.Fn.name fn ^ "_X" in
          check_true
            (Printf.sprintf "%s starts with %s" name prefix)
            (String.length name > String.length prefix
            && String.sub name 0 (String.length prefix) = prefix))
        (Cells.Library.sizes_of_fn lib fn))
    (Cells.Library.functions lib)

(* ---- FULLSSTA internals --------------------------------------------------------- *)

let fullssta_pdf_invariants_everywhere () =
  let c = Benchgen.Alu.generate ~lib ~bits:4 () in
  let full = Ssta.Fullssta.run c in
  Netlist.Circuit.iter_nodes c ~f:(fun id ->
      let pdf = Ssta.Fullssta.pdf full id in
      check_true "pdf invariants" (Numerics.Discrete_pdf.check_invariants pdf);
      check_true "pdf bounded" (Numerics.Discrete_pdf.support_size pdf <= 24);
      let m = Ssta.Fullssta.moments full id in
      close ~tol:1e-9 "stored moments match pdf" (Numerics.Discrete_pdf.mean pdf)
        m.Numerics.Clark.mean)

let fullssta_yield_is_rv_cdf () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:4 () in
  let full = Ssta.Fullssta.run c in
  let rv = Ssta.Fullssta.output_rv full in
  List.iter
    (fun q ->
      let period = Numerics.Discrete_pdf.quantile rv q in
      close_abs ~tol:1e-9 "yield = cdf of RV_O"
        (Numerics.Discrete_pdf.cdf rv period)
        (Ssta.Fullssta.yield_at full ~period))
    [ 0.1; 0.5; 0.9 ]

(* ---- sizer determinism / co-sizing ----------------------------------------------- *)

let sizer_is_deterministic () =
  let run () =
    let c = Benchgen.Alu.generate ~lib ~bits:4 () in
    let _ = Core.Initial_sizing.apply ~lib c in
    let config =
      { Core.Sizer.default_config with
        objective = Core.Objective.create ~alpha:9.0; max_iterations = 10 }
    in
    let r = Core.Sizer.optimize ~config ~lib c in
    (r.Core.Sizer.final_area,
     (Ssta.Fullssta.output_moments (Ssta.Fullssta.run c)).Numerics.Clark.mean)
  in
  let a1, m1 = run () and a2, m2 = run () in
  close ~tol:0.0 "same area" a1 a2;
  close ~tol:0.0 "same mean" m1 m2

(* One Table-1 job (mean-delay baseline, then alpha 3 and 9 with area
   recovery) run twice in one process on a fresh copy of the circuit must
   give the same cells and the same figures to the last bit. *)
let table1_job_repeats_bit_for_bit () =
  let fingerprint circuit m area =
    ( Serve.Jobs.sizing_digest circuit,
      List.map Int64.bits_of_float
        [ m.Numerics.Clark.mean; Numerics.Clark.sigma m; area ] )
  in
  let run name =
    let pristine = Benchgen.Iscas_like.build_exn ~lib name in
    let b =
      Experiments.Pipeline.prepare ~lib (fun () ->
          Netlist.Circuit.copy pristine)
    in
    fingerprint b.Experiments.Pipeline.circuit b.moments b.area
    :: List.map
         (fun alpha ->
           let r = Experiments.Pipeline.run_alpha ~lib b ~alpha in
           fingerprint r.Experiments.Pipeline.circuit r.final_moments
             r.final_area)
         [ 3.0; 9.0 ]
  in
  List.iter
    (fun name ->
      let first = run name in
      let second = run name in
      List.iter2
        (fun (d1, bits1) (d2, bits2) ->
          Alcotest.(check string) (name ^ " sizing digest") d1 d2;
          Alcotest.(check (list int64)) (name ^ " mean, sigma, area bits") bits1
            bits2)
        first second)
    [ "c432"; "alu2" ]

let window_co_sizing_reports_adjustments () =
  let c = Benchgen.Adder.ripple_carry ~lib ~bits:4 () in
  let full = Ssta.Fullssta.run c in
  let window =
    Core.Window.create ~circuit:c ~model:Variation.Model.default
      ~objective:(Core.Objective.create ~alpha:9.0) ~full ()
  in
  (* push a mid-chain gate to max: its min-size fanins must be co-sized *)
  let gate =
    List.find
      (fun id ->
        Array.exists
          (fun fi -> not (Netlist.Circuit.is_input c fi))
          (Netlist.Circuit.fanins c id))
      (List.rev (Netlist.Circuit.gates c))
  in
  let sub = Netlist.Cone.extract c ~pivot:gate ~depth:2 in
  let huge =
    Cells.Library.max_cell lib ~fn:(Cells.Cell.fn (Netlist.Circuit.cell_exn c gate))
  in
  let _, adjustments = Core.Window.cost_with_cell ~lib window sub huge in
  check_true "fanins co-sized upward"
    (List.for_all
       (fun (fi, cell) ->
         Cells.Cell.strength cell
         > Cells.Cell.strength (Netlist.Circuit.cell_exn c fi))
       adjustments);
  check_true "at least one adjustment" (adjustments <> [])

(* ---- cross-engine sanity on every suite circuit (cheap passes only) ------------- *)

let engines_agree_on_suite_means () =
  List.iter
    (fun name ->
      let c = Benchgen.Iscas_like.build_exn ~lib name in
      let _ = Core.Initial_sizing.apply ~lib c in
      let det = Sta.Analysis.analyze c in
      (* the exact-Clark propagation is the engine used for global scoring;
         the quadratic variant is a window-scale device and drifts much
         further on reconvergent circuits (by design, documented) *)
      let e = Sta.Electrical.compute c in
      let out =
        Array.make (Netlist.Circuit.size c) (moments ~mu:0.0 ~sigma:0.0)
      in
      Ssta.Fassta.propagate_into ~exact:true ~model:Variation.Model.default
        ~circuit:c ~electrical:e out;
      let stat =
        Numerics.Clark.max_exact_list
          (List.map (fun o -> out.(o)) (Netlist.Circuit.outputs c))
      in
      (* E[max] must dominate the deterministic max arrival; the moments
         chain drifts high on heavy reconvergence (c499 reaches ~1.7x),
         while the discrete engine stays much closer *)
      check_true
        (Printf.sprintf "%s: stat mean >= det arrival" name)
        (stat.Numerics.Clark.mean >= Sta.Analysis.max_arrival det -. 1e-6);
      check_true
        (Printf.sprintf "%s: moments chain within 2x of det" name)
        (stat.Numerics.Clark.mean < 2.0 *. Sta.Analysis.max_arrival det);
      (* FULLSSTA shares the independence assumption, so on heavily
         reconvergent circuits (c499: every output is a max over dozens of
         correlated-in-truth paths) E[max] inflates the same way — up to
         ~1.75x deterministic at minimum sizes with k_sys = 0.8. Both
         engines must agree with EACH OTHER far more tightly than with the
         deterministic arrival. *)
      let full = Ssta.Fullssta.run c in
      let fm = Ssta.Fullssta.output_moments full in
      check_true
        (Printf.sprintf "%s: FULLSSTA dominates det" name)
        (fm.Numerics.Clark.mean >= Sta.Analysis.max_arrival det -. 1e-6);
      check_true
        (Printf.sprintf "%s: engines agree within 15%%" name)
        (Float.abs (fm.Numerics.Clark.mean -. stat.Numerics.Clark.mean)
        < 0.15 *. fm.Numerics.Clark.mean))
    [ "alu2"; "c432"; "c499" ]

let () =
  Alcotest.run "regressions"
    [
      ( "regressions",
        [
          Alcotest.test_case "rng int non-negative" `Quick rng_int_never_negative;
          Alcotest.test_case "resample chain keeps sigma" `Quick
            resample_chain_keeps_sigma;
          Alcotest.test_case "phi quadratic values" `Quick phi_quadratic_values;
          Alcotest.test_case "named wide gate root" `Quick named_wide_gate_root;
        ] );
      ("vec", [ Alcotest.test_case "grow/index/fold" `Quick vec_grows_and_indexes ]);
      ( "structure",
        [
          Alcotest.test_case "by_level partitions" `Quick by_level_partitions_nodes;
          Alcotest.test_case "bench writer" `Quick bench_writer_structure;
          Alcotest.test_case "library tau/strengths" `Quick library_tau_and_strengths;
          Alcotest.test_case "cell naming" `Quick cell_names_follow_convention;
        ] );
      ( "fullssta-internals",
        [
          Alcotest.test_case "pdf invariants everywhere" `Quick
            fullssta_pdf_invariants_everywhere;
          Alcotest.test_case "yield is RV cdf" `Quick fullssta_yield_is_rv_cdf;
        ] );
      ( "sizer",
        [
          Alcotest.test_case "deterministic" `Quick sizer_is_deterministic;
          Alcotest.test_case "table1 job repeats bit for bit" `Slow
            table1_job_repeats_bit_for_bit;
          Alcotest.test_case "co-sizing adjustments" `Quick
            window_co_sizing_reports_adjustments;
        ] );
      ( "suite",
        [
          Alcotest.test_case "engines agree on means" `Quick
            engines_agree_on_suite_means;
        ] );
    ]
