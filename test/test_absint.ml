(* Abstract-interpretation certifier tests: interval arithmetic, the
   certified Clark error constants, and statcheck containment on real
   suites. *)

open Test_util
module I = Numerics.Interval
module D = Absint.Domain

(* ---- Interval ----------------------------------------------------------- *)

let interval_basics () =
  let a = I.v 1.0 2.0 and b = I.v (-0.5) 0.5 in
  check_true "contains" (I.contains a 1.5);
  check_true "lo excluded" (not (I.contains a 0.99));
  close ~tol:0.0 "width" 1.0 (I.width a);
  let s = I.add a b in
  check_true "add lo" (I.lo s <= 0.5);
  check_true "add hi" (I.hi s >= 2.5);
  let m = I.max2 a b in
  close ~tol:0.0 "max2 lo" 1.0 (I.lo m);
  close ~tol:0.0 "max2 hi" 2.0 (I.hi m)

let interval_outward_rounding () =
  (* 0.1 + 0.2 is not representable: the sum interval must still contain
     the real value 0.3, strictly between the rounded endpoints. *)
  let s = I.add (I.point 0.1) (I.point 0.2) in
  check_true "0.3 inside" (I.lo s <= 0.3 && 0.3 <= I.hi s);
  check_true "not a point" (I.width s > 0.0);
  let q = I.sq (I.v (-2.0) 3.0) in
  check_true "sq straddling zero" (I.lo q = 0.0 && I.hi q >= 9.0);
  let r = I.sqrt_ (I.v 2.0 2.0) in
  check_true "sqrt encloses" (I.lo r *. I.lo r <= 2.0 && 2.0 <= I.hi r *. I.hi r)

let interval_rejects_nan_or_reversed () =
  check_true "reversed rejected"
    (try ignore (I.v 2.0 1.0); false with Invalid_argument _ -> true);
  check_true "nan rejected"
    (try ignore (I.v Float.nan 1.0); false with Invalid_argument _ -> true)

(* ---- Budget constants --------------------------------------------------- *)

let budget_constants_sane () =
  let open Absint.Budget in
  check_true "eps_phi positive" (eps_phi > 0.0);
  check_true "eps_phi small" (eps_phi < 0.01);
  check_true "cutoff mean < blend mean" (k_cutoff_mean < k_blend_mean);
  check_true "cutoff var < blend var" (k_cutoff_var < k_blend_var);
  close ~tol:0.0 "k_mean is the max" (Float.max k_cutoff_mean k_blend_mean) k_mean;
  close ~tol:0.0 "k_var is the max" (Float.max k_cutoff_var k_blend_var) k_var;
  close ~tol:1e-12 "mean_step scales with spread"
    (2.0 *. mean_step ~certain_cutoff:false ~spread_hi:1.0)
    (mean_step ~certain_cutoff:false ~spread_hi:2.0);
  close ~tol:1e-12 "var_step scales with spread^2"
    (4.0 *. var_step ~certain_cutoff:true ~spread_hi:1.0)
    (var_step ~certain_cutoff:true ~spread_hi:2.0)

(* The constants certify |fast - exact| one-step deviations: verify against
   the concrete engines over a random moment grid. *)
let budget_bounds_fast_vs_exact =
  qcheck ~count:500 "one-step |fast-exact| within certified constants"
    QCheck.(
      quad (float_range (-50.0) 50.0) (float_range (-50.0) 50.0)
        (float_range 0.01 30.0) (float_range 0.01 30.0))
    (fun (ma, mb, sa, sb) ->
      let a = moments ~mu:ma ~sigma:sa and b = moments ~mu:mb ~sigma:sb in
      let sp = Numerics.Clark.spread a b in
      let f = Numerics.Clark.max_fast a b in
      let e = Numerics.Clark.max_exact a b in
      Float.abs (f.Numerics.Clark.mean -. e.Numerics.Clark.mean)
      <= (Absint.Budget.k_mean *. sp) +. 1e-9
      && Float.abs (f.Numerics.Clark.var -. e.Numerics.Clark.var)
         <= (Absint.Budget.k_var *. sp *. sp) +. 1e-9)

(* Clark's exact max of independent normals never exceeds the larger input
   variance (DESIGN.md §9.2's identity Var = vA + (vB-vA)Φ(-α) + gap·e1 -
   e1² ≤ max(vA,vB)) — the Clark-mode variance bound rests on this. *)
let clark_variance_identity =
  qcheck ~count:500 "Var(max_exact) <= max input variance"
    QCheck.(
      quad (float_range (-50.0) 50.0) (float_range (-50.0) 50.0)
        (float_range 0.01 30.0) (float_range 0.01 30.0))
    (fun (ma, mb, sa, sb) ->
      let a = moments ~mu:ma ~sigma:sa and b = moments ~mu:mb ~sigma:sb in
      let e = Numerics.Clark.max_exact a b in
      e.Numerics.Clark.var
      <= Float.max a.Numerics.Clark.var b.Numerics.Clark.var +. 1e-9
      && e.Numerics.Clark.mean
         >= Float.max a.Numerics.Clark.mean b.Numerics.Clark.mean -. 1e-9)

(* ---- Domain transfer ---------------------------------------------------- *)

let domain_max_encloses_engines =
  qcheck ~count:300 "abstract max encloses fast and exact results"
    QCheck.(
      quad (float_range (-20.0) 20.0) (float_range (-20.0) 20.0)
        (float_range 0.1 10.0) (float_range 0.1 10.0))
    (fun (ma, mb, sa, sb) ->
      let a = moments ~mu:ma ~sigma:sa and b = moments ~mu:mb ~sigma:sb in
      let av = D.exact a and bv = D.exact b in
      let r = D.max2 D.Clark_normal av bv in
      let f = Numerics.Clark.max_fast a b in
      let e = Numerics.Clark.max_exact a b in
      I.contains ~tol:1e-9 r.D.mean f.Numerics.Clark.mean
      && I.contains ~tol:1e-9 r.D.mean e.Numerics.Clark.mean
      && f.Numerics.Clark.var <= I.hi r.D.var +. 1e-9
      && e.Numerics.Clark.var <= I.hi r.D.var +. 1e-9)

let domain_max_list_empty_rejected () =
  check_true "max_list [] rejected"
    (try ignore (D.max_list D.Clark_normal []); false
     with Invalid_argument _ -> true)

(* ---- Statcheck containment on real suites ------------------------------- *)

let suite_names = [ "c432"; "c880"; "c1908" ]

let exact_moments c =
  let electrical = Sta.Electrical.compute c in
  let scratch =
    Array.make (Netlist.Circuit.size c)
      (Numerics.Clark.moments ~mean:0.0 ~var:0.0)
  in
  Ssta.Fassta.propagate_into ~exact:true ~model:Variation.Model.default
    ~circuit:c ~electrical scratch;
  scratch

let containment_on name () =
  let c = Benchgen.Iscas_like.build_exn ~lib name in
  ignore (Core.Initial_sizing.apply ~lib c);
  let sc = Absint.Statcheck.run ~lib c in
  let scd =
    Absint.Statcheck.run
      ~config:
        {
          Absint.Statcheck.default_config with
          semantics = D.Distribution_free;
        }
      ~lib c
  in
  let full = Ssta.Fullssta.run c in
  let fast = Ssta.Fassta.run c in
  let exact = exact_moments c in
  let fail_on what = function
    | [] -> ()
    | d :: _ -> Alcotest.failf "%s/%s: %a" name what Diag.pp d
  in
  fail_on "fullssta" (Lint.Absint_rules.check_fullssta scd (Ssta.Fullssta.moments full));
  fail_on "fassta fast"
    (Lint.Absint_rules.check_fassta ~engine:`Fast sc (fun id -> fast.(id)));
  fail_on "fassta exact"
    (Lint.Absint_rules.check_fassta ~engine:`Exact sc (fun id -> exact.(id)));
  fail_on "budget"
    (Lint.Absint_rules.check_budget sc
       ~fast:(fun id -> fast.(id))
       ~exact:(fun id -> exact.(id)))

(* All-sizings enclosures hull the whole drive ladder, so the current-sizing
   engines must land inside them too. *)
let all_sizings_superset () =
  let c = Benchgen.Iscas_like.build_exn ~lib "c432" in
  ignore (Core.Initial_sizing.apply ~lib c);
  let sc =
    Absint.Statcheck.run
      ~config:
        { Absint.Statcheck.default_config with scope = Absint.Statcheck.All_sizings }
      ~lib c
  in
  let fast = Ssta.Fassta.run c in
  (match Lint.Absint_rules.check_fassta ~engine:`Fast sc (fun id -> fast.(id)) with
  | [] -> ()
  | d :: _ -> Alcotest.failf "all-sizings: %a" Diag.pp d);
  (* and strictly wider than the current-sizing run somewhere *)
  let tight = Absint.Statcheck.run ~lib c in
  let wider = ref false in
  Netlist.Circuit.iter_nodes c ~f:(fun id ->
      if
        I.width (Absint.Statcheck.mean_interval sc id)
        > I.width (Absint.Statcheck.mean_interval tight id) +. 1e-9
      then wider := true);
  check_true "ladder hull is wider somewhere" !wider

let statcheck_rv_and_budget () =
  let c = Benchgen.Iscas_like.build_exn ~lib "c880" in
  ignore (Core.Initial_sizing.apply ~lib c);
  let sc = Absint.Statcheck.run ~lib c in
  let rv = Absint.Statcheck.rv_state sc in
  let full = Ssta.Fullssta.run c in
  let m = Ssta.Fullssta.output_moments full in
  (* RV_O's certified interval is a Clark-mode enclosure; FULLSSTA's RV_O
     mean tracks the exact-Clark one loosely, but the interval must at least
     bracket the per-output FASSTA fold it certifies. *)
  let fast = Ssta.Fassta.run c in
  let fm = Ssta.Fassta.output_moments c fast in
  check_true "rv interval contains FASSTA RV_O"
    (I.contains ~tol:1e-6 rv.D.mean fm.Numerics.Clark.mean);
  check_true "rv hi above FULLSSTA mean"
    (I.hi rv.D.mean +. 1.0 >= m.Numerics.Clark.mean);
  check_true "budget positive" (Absint.Statcheck.output_budget sc > 0.0);
  check_true "pp_summary prints"
    (String.length (Fmt.str "%a" Absint.Statcheck.pp_summary sc) > 0)

let () =
  Alcotest.run "absint"
    [
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick interval_basics;
          Alcotest.test_case "outward rounding" `Quick interval_outward_rounding;
          Alcotest.test_case "validation" `Quick interval_rejects_nan_or_reversed;
        ] );
      ( "budget",
        [
          Alcotest.test_case "constants sane" `Quick budget_constants_sane;
          budget_bounds_fast_vs_exact;
          clark_variance_identity;
        ] );
      ( "domain",
        [
          domain_max_encloses_engines;
          Alcotest.test_case "empty max rejected" `Quick
            domain_max_list_empty_rejected;
        ] );
      ( "statcheck",
        List.map
          (fun name ->
            Alcotest.test_case ("containment " ^ name) `Quick (containment_on name))
          suite_names
        @ [
            Alcotest.test_case "all-sizings superset" `Quick all_sizings_superset;
            Alcotest.test_case "rv and budget" `Quick statcheck_rv_and_budget;
          ] );
    ]
