(* Unit and property tests for the numerics substrate. *)

open Test_util

(* ---- Erf ---------------------------------------------------------------- *)

let erf_reference_values () =
  (* Abramowitz & Stegun tabulated values. *)
  close ~tol:1e-6 "erf 0" 0.0 (Numerics.Erf.exact 0.0);
  close ~tol:1e-5 "erf 0.5" 0.5204999 (Numerics.Erf.exact 0.5);
  close ~tol:1e-5 "erf 1" 0.8427008 (Numerics.Erf.exact 1.0);
  close ~tol:1e-5 "erf 2" 0.9953223 (Numerics.Erf.exact 2.0);
  close ~tol:1e-5 "erf 3" 0.9999779 (Numerics.Erf.exact 3.0)

let erf_odd () =
  List.iter
    (fun x ->
      close ~tol:1e-12 "erf odd" (-.Numerics.Erf.exact x) (Numerics.Erf.exact (-.x));
      close ~tol:1e-12 "quadratic odd" (-.Numerics.Erf.quadratic x)
        (Numerics.Erf.quadratic (-.x)))
    [ 0.1; 0.7; 1.5; 2.3; 3.0 ]

let erfc_complement () =
  List.iter
    (fun x ->
      close ~tol:1e-12 "erfc" (1.0 -. Numerics.Erf.exact x) (Numerics.Erf.erfc x))
    [ -2.0; -0.3; 0.0; 0.4; 1.9 ]

(* The paper claims two-decimal accuracy for the CRC quadratic. *)
let quadratic_two_decimals () =
  let err = Numerics.Erf.max_quadratic_error () in
  check_true "quadratic error < 0.015" (err < 0.015);
  check_true "quadratic error nontrivial" (err > 0.001)

let quadratic_saturates () =
  close ~tol:0.0 "saturation +" 1.0 (Numerics.Erf.quadratic 1.9);
  close ~tol:0.0 "saturation -" (-1.0) (Numerics.Erf.quadratic (-3.5));
  close ~tol:0.0 "phi saturation point is 2.6" 2.6 Numerics.Erf.phi_saturation_point;
  close ~tol:1e-9 "phi(0)" 0.5 (Numerics.Erf.phi_quadratic 0.0);
  close ~tol:0.006 "phi(1)" 0.8413 (Numerics.Erf.phi_quadratic 1.0);
  close ~tol:0.0 "phi saturates" 1.0 (Numerics.Erf.phi_quadratic 2.7)

let erf_monotone =
  qcheck "exact erf is monotone"
    QCheck.(pair (float_bound_inclusive 4.0) (float_bound_inclusive 4.0))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Numerics.Erf.exact lo <= Numerics.Erf.exact hi +. 1e-12)

(* ---- Normal ------------------------------------------------------------- *)

let normal_cdf_values () =
  close ~tol:1e-7 "cdf 0" 0.5 (Numerics.Normal.cdf 0.0);
  close ~tol:1e-5 "cdf 1.96" 0.9750021 (Numerics.Normal.cdf 1.96);
  close ~tol:1e-5 "cdf -1" 0.1586553 (Numerics.Normal.cdf (-1.0));
  close ~tol:1e-6 "pdf 0" 0.3989423 (Numerics.Normal.pdf 0.0)

let normal_quantile_roundtrip =
  qcheck "quantile inverts cdf" QCheck.(float_range 0.001 0.999) (fun p ->
      Float.abs (Numerics.Normal.cdf (Numerics.Normal.quantile p) -. p) < 1e-6)

let normal_quantile_invalid () =
  Alcotest.check_raises "p=0 rejected"
    (Invalid_argument "Normal.quantile: p = 0 outside (0, 1)") (fun () ->
      ignore (Numerics.Normal.quantile 0.0))

let normal_degenerate_sigma () =
  close ~tol:0.0 "step below" 0.0 (Numerics.Normal.cdf_at ~mean:5.0 ~sigma:0.0 4.9);
  close ~tol:0.0 "step above" 1.0 (Numerics.Normal.cdf_at ~mean:5.0 ~sigma:0.0 5.0)

let normal_scaled () =
  close ~tol:1e-6 "scaled cdf at mean" 0.5
    (Numerics.Normal.cdf_at ~mean:100.0 ~sigma:7.0 100.0);
  close ~tol:1e-5 "scaled quantile" 100.0
    (Numerics.Normal.quantile_at ~mean:100.0 ~sigma:7.0 0.5)

(* ---- Clark -------------------------------------------------------------- *)

let clark_sum () =
  let a = moments ~mu:10.0 ~sigma:3.0 and b = moments ~mu:20.0 ~sigma:4.0 in
  let s = Numerics.Clark.sum a b in
  close "sum mean" 30.0 s.Numerics.Clark.mean;
  close "sum sigma" 5.0 (Numerics.Clark.sigma s)

let clark_max_symmetric_equal () =
  (* max of two iid N(0,1): mean = 1/sqrt(pi), var = 1 - 1/pi *)
  let a = moments ~mu:0.0 ~sigma:1.0 in
  let m = Numerics.Clark.max_exact a a in
  close ~tol:1e-4 "E[max] = 1/sqrt(pi)" (1.0 /. Float.sqrt Float.pi)
    m.Numerics.Clark.mean;
  close ~tol:1e-3 "Var[max] = 1 - 1/pi" (1.0 -. (1.0 /. Float.pi))
    m.Numerics.Clark.var

let clark_max_dominant () =
  let a = moments ~mu:100.0 ~sigma:1.0 and b = moments ~mu:0.0 ~sigma:1.0 in
  let m = Numerics.Clark.max_exact a b in
  close ~tol:1e-6 "dominant mean" 100.0 m.Numerics.Clark.mean;
  close ~tol:1e-4 "dominant var" 1.0 m.Numerics.Clark.var

let clark_cutoff_branches () =
  let a = moments ~mu:100.0 ~sigma:3.0 and b = moments ~mu:50.0 ~sigma:3.0 in
  (match Numerics.Clark.max_fast_resolved a b with
  | m, Numerics.Clark.Left_dominates -> close "left wins" 100.0 m.Numerics.Clark.mean
  | _ -> Alcotest.fail "expected Left_dominates");
  (match Numerics.Clark.max_fast_resolved b a with
  | m, Numerics.Clark.Right_dominates ->
      close "right wins" 100.0 m.Numerics.Clark.mean
  | _ -> Alcotest.fail "expected Right_dominates");
  match
    Numerics.Clark.max_fast_resolved (moments ~mu:100.0 ~sigma:10.0)
      (moments ~mu:101.0 ~sigma:10.0)
  with
  | _, Numerics.Clark.Blended -> ()
  | _ -> Alcotest.fail "expected Blended"

let clark_max_vs_monte_carlo () =
  let rng = Numerics.Rng.create ~seed:7 in
  let cases =
    [ (0.0, 1.0, 0.0, 1.0); (10.0, 2.0, 11.0, 3.0); (5.0, 1.0, 9.0, 4.0);
      (100.0, 10.0, 95.0, 2.0) ]
  in
  List.iter
    (fun (ma, sa, mb, sb) ->
      let stats = Numerics.Stats.create () in
      for _ = 1 to 60_000 do
        let xa = Numerics.Rng.gaussian_scaled rng ~mean:ma ~sigma:sa in
        let xb = Numerics.Rng.gaussian_scaled rng ~mean:mb ~sigma:sb in
        Numerics.Stats.add stats (Float.max xa xb)
      done;
      let m =
        Numerics.Clark.max_exact (moments ~mu:ma ~sigma:sa)
          (moments ~mu:mb ~sigma:sb)
      in
      close ~tol:0.02 "Clark mean vs MC"
        (Numerics.Stats.mean stats +. 1.0)
        (m.Numerics.Clark.mean +. 1.0);
      close ~tol:0.05 "Clark sigma vs MC" (Numerics.Stats.std stats)
        (Numerics.Clark.sigma m))
    cases

let gen_moments =
  QCheck.map
    (fun (mu, sigma) -> moments ~mu ~sigma:(0.1 +. sigma))
    QCheck.(pair (float_range (-50.) 400.) (float_range 0.0 40.0))

let clark_max_commutative =
  qcheck "exact max is commutative" (QCheck.pair gen_moments gen_moments)
    (fun (a, b) ->
      let m1 = Numerics.Clark.max_exact a b in
      let m2 = Numerics.Clark.max_exact b a in
      Float.abs (m1.Numerics.Clark.mean -. m2.Numerics.Clark.mean) < 1e-9
      && Float.abs (m1.Numerics.Clark.var -. m2.Numerics.Clark.var) < 1e-9)

let clark_max_bounds =
  qcheck "E[max] >= both means" (QCheck.pair gen_moments gen_moments)
    (fun (a, b) ->
      let m = Numerics.Clark.max_exact a b in
      m.Numerics.Clark.mean
      >= Float.max a.Numerics.Clark.mean b.Numerics.Clark.mean -. 1e-6)

(* The fast max's error sources are the quadratic Φ (≤ 0.0052) and the 2.6
   cutoff, whose truncated tail carries at most a few percent of the spread
   (worst when the dominant operand's own sigma is tiny). Both error scales
   are proportional to the spread a = sqrt(σA² + σB²). *)
let clark_fast_close_to_exact =
  qcheck "fast max tracks exact max" (QCheck.pair gen_moments gen_moments)
    (fun (a, b) ->
      let e = Numerics.Clark.max_exact a b in
      let f = Numerics.Clark.max_fast a b in
      let spread = Numerics.Clark.spread a b in
      Float.abs (e.Numerics.Clark.mean -. f.Numerics.Clark.mean)
      < (0.05 *. spread) +. 0.01
      && Float.abs (Numerics.Clark.sigma e -. Numerics.Clark.sigma f)
         < (0.2 *. spread) +. 0.01)

let clark_negative_var_rejected () =
  Alcotest.check_raises "negative variance"
    (Invalid_argument "Clark.moments: negative variance") (fun () ->
      ignore (Numerics.Clark.moments ~mean:0.0 ~var:(-1.0)))

(* The 2.6-cutoff boundary, straddled from both sides at unit spread
   (var 0.5 + 0.5 so alpha = gap exactly): the resolved branch must flip
   exactly at alpha = 2.6, and whichever branch fires must stay within the
   statically certified one-step error constants of the exact max
   (Absint.Budget's k_* — the same constants statcheck's enclosures use). *)
let clark_cutoff_boundary () =
  let check_gap gap expect_left =
    let a = Numerics.Clark.moments ~mean:gap ~var:0.5 in
    let b = Numerics.Clark.moments ~mean:0.0 ~var:0.5 in
    let sp = Numerics.Clark.spread a b in
    close ~tol:1e-12 "unit spread" 1.0 sp;
    let f, res = Numerics.Clark.max_fast_resolved a b in
    let f' = Numerics.Clark.max_fast a b in
    close ~tol:0.0 "max_fast matches resolved mean" f'.Numerics.Clark.mean
      f.Numerics.Clark.mean;
    close ~tol:0.0 "max_fast matches resolved var" f'.Numerics.Clark.var
      f.Numerics.Clark.var;
    let name = Printf.sprintf "gap %.3f" gap in
    (match (res, expect_left) with
    | Numerics.Clark.Left_dominates, true | Numerics.Clark.Blended, false -> ()
    | r, _ ->
        Alcotest.failf "%s: unexpected resolution %s" name
          (match r with
          | Numerics.Clark.Left_dominates -> "Left_dominates"
          | Numerics.Clark.Right_dominates -> "Right_dominates"
          | Numerics.Clark.Blended -> "Blended"));
    let e = Numerics.Clark.max_exact a b in
    let k_mean, k_var =
      if expect_left then (Absint.Budget.k_cutoff_mean, Absint.Budget.k_cutoff_var)
      else (Absint.Budget.k_blend_mean, Absint.Budget.k_blend_var)
    in
    check_true (name ^ ": mean within certified step")
      (Float.abs (f.Numerics.Clark.mean -. e.Numerics.Clark.mean)
      <= k_mean *. sp);
    check_true (name ^ ": var within certified step")
      (Float.abs (f.Numerics.Clark.var -. e.Numerics.Clark.var)
      <= k_var *. sp *. sp)
  in
  check_gap 2.599 false;
  check_gap 2.6 true;
  check_gap 2.601 true

let clark_list_ops () =
  let ms = [ moments ~mu:1.0 ~sigma:1.0; moments ~mu:2.0 ~sigma:1.0;
             moments ~mu:50.0 ~sigma:1.0 ] in
  let m = Numerics.Clark.max_exact_list ms in
  close ~tol:1e-3 "list max dominated by 50" 50.0 m.Numerics.Clark.mean;
  Alcotest.check_raises "empty list"
    (Invalid_argument
       "Clark.max_exact_list: empty operand list (the max of zero random \
        variables is undefined; callers must supply at least one arrival)")
    (fun () -> ignore (Numerics.Clark.max_exact_list []));
  Alcotest.check_raises "empty fast list"
    (Invalid_argument
       "Clark.max_fast_list: empty operand list (the max of zero random \
        variables is undefined; callers must supply at least one arrival)")
    (fun () -> ignore (Numerics.Clark.max_fast_list []))

(* ---- Discrete_pdf ------------------------------------------------------- *)

let pdf_constant () =
  let p = Numerics.Discrete_pdf.constant 3.0 in
  close "constant mean" 3.0 (Numerics.Discrete_pdf.mean p);
  close_abs "constant var" 0.0 (Numerics.Discrete_pdf.variance p);
  check_int "one point" 1 (Numerics.Discrete_pdf.support_size p)

let pdf_of_normal_moments () =
  let p = Numerics.Discrete_pdf.of_normal ~samples:12 ~mean:100.0 ~sigma:10.0 () in
  close ~tol:0.01 "discretized mean" 100.0 (Numerics.Discrete_pdf.mean p);
  close ~tol:0.05 "discretized sigma" 10.0 (Numerics.Discrete_pdf.std p);
  check_true "invariants" (Numerics.Discrete_pdf.check_invariants p)

let pdf_sum_moments () =
  let a = Numerics.Discrete_pdf.of_normal ~samples:12 ~mean:10.0 ~sigma:3.0 () in
  let b = Numerics.Discrete_pdf.of_normal ~samples:12 ~mean:20.0 ~sigma:4.0 () in
  let s = Numerics.Discrete_pdf.sum a b in
  close ~tol:0.01 "sum mean" 30.0 (Numerics.Discrete_pdf.mean s);
  close ~tol:0.05 "sum sigma" 5.0 (Numerics.Discrete_pdf.std s);
  check_true "invariants" (Numerics.Discrete_pdf.check_invariants s)

let pdf_max_matches_clark () =
  let a = Numerics.Discrete_pdf.of_normal ~samples:25 ~mean:100.0 ~sigma:10.0 () in
  let b = Numerics.Discrete_pdf.of_normal ~samples:25 ~mean:105.0 ~sigma:8.0 () in
  let m = Numerics.Discrete_pdf.max2 a b in
  let clark =
    Numerics.Clark.max_exact (moments ~mu:100.0 ~sigma:10.0)
      (moments ~mu:105.0 ~sigma:8.0)
  in
  close ~tol:0.02 "discrete max mean vs Clark" clark.Numerics.Clark.mean
    (Numerics.Discrete_pdf.mean m);
  close ~tol:0.12 "discrete max sigma vs Clark" (Numerics.Clark.sigma clark)
    (Numerics.Discrete_pdf.std m)

let pdf_resample_preserves_moments () =
  let a = Numerics.Discrete_pdf.of_normal ~samples:40 ~mean:50.0 ~sigma:5.0 () in
  let b = Numerics.Discrete_pdf.of_normal ~samples:40 ~mean:51.0 ~sigma:5.0 () in
  let s = Numerics.Discrete_pdf.sum a b in
  let r = Numerics.Discrete_pdf.resample s ~samples:12 in
  check_true "support bounded" (Numerics.Discrete_pdf.support_size r <= 24);
  close ~tol:1e-9 "resample preserves mean" (Numerics.Discrete_pdf.mean s)
    (Numerics.Discrete_pdf.mean r);
  close ~tol:0.02 "resample preserves sigma" (Numerics.Discrete_pdf.std s)
    (Numerics.Discrete_pdf.std r)

let pdf_cdf_quantile () =
  let p = Numerics.Discrete_pdf.of_normal ~samples:30 ~mean:0.0 ~sigma:1.0 () in
  (* discrete median resolves to within half a bin (bins are 8/30 wide) *)
  close_abs ~tol:0.15 "median" 0.0 (Numerics.Discrete_pdf.quantile p 0.5);
  close_abs ~tol:0.06 "cdf at 0" 0.5 (Numerics.Discrete_pdf.cdf p 0.0);
  close_abs ~tol:1e-9 "cdf far right" 1.0 (Numerics.Discrete_pdf.cdf p 10.0);
  close_abs ~tol:1e-9 "cdf far left" 0.0 (Numerics.Discrete_pdf.cdf p (-10.0))

let pdf_shift_scale () =
  let p = Numerics.Discrete_pdf.of_normal ~samples:15 ~mean:10.0 ~sigma:2.0 () in
  let sh = Numerics.Discrete_pdf.shift p 5.0 in
  close ~tol:1e-9 "shift mean" 15.0 (Numerics.Discrete_pdf.mean sh);
  close ~tol:1e-9 "shift keeps sigma" (Numerics.Discrete_pdf.std p)
    (Numerics.Discrete_pdf.std sh);
  let sc = Numerics.Discrete_pdf.scale p 2.0 in
  close ~tol:1e-9 "scale mean" 20.0 (Numerics.Discrete_pdf.mean sc);
  close ~tol:1e-9 "scale sigma" (2.0 *. Numerics.Discrete_pdf.std p)
    (Numerics.Discrete_pdf.std sc);
  let neg = Numerics.Discrete_pdf.scale p (-1.0) in
  close ~tol:1e-9 "negative scale mean" (-10.0) (Numerics.Discrete_pdf.mean neg)

let pdf_of_samples () =
  let values = List.init 1000 (fun i -> float_of_int (i mod 10)) in
  let p = Numerics.Discrete_pdf.of_samples ~samples:20 values in
  close ~tol:0.01 "empirical mean" 4.5 (Numerics.Discrete_pdf.mean p);
  check_true "invariants" (Numerics.Discrete_pdf.check_invariants p)

let pdf_empty_rejected () =
  Alcotest.check_raises "no mass" (Invalid_argument "Discrete_pdf: no probability mass")
    (fun () -> ignore (Numerics.Discrete_pdf.of_points [ (1.0, 0.0) ]))

let gen_pdf =
  QCheck.map
    (fun (mu, sigma, n) ->
      Numerics.Discrete_pdf.of_normal ~samples:(6 + n) ~mean:mu
        ~sigma:(0.5 +. sigma) ())
    QCheck.(triple (float_range 0.0 200.0) (float_range 0.0 20.0) (int_bound 10))

let pdf_ops_keep_invariants =
  qcheck ~count:100 "sum/max keep invariants" (QCheck.pair gen_pdf gen_pdf)
    (fun (a, b) ->
      Numerics.Discrete_pdf.check_invariants (Numerics.Discrete_pdf.sum a b)
      && Numerics.Discrete_pdf.check_invariants (Numerics.Discrete_pdf.max2 a b)
      && Numerics.Discrete_pdf.check_invariants
           (Numerics.Discrete_pdf.resample (Numerics.Discrete_pdf.sum a b)
              ~samples:10))

let pdf_max_ge_means =
  qcheck ~count:100 "E[max] >= both means" (QCheck.pair gen_pdf gen_pdf)
    (fun (a, b) ->
      let m = Numerics.Discrete_pdf.max2 a b in
      Numerics.Discrete_pdf.mean m
      >= Float.max (Numerics.Discrete_pdf.mean a) (Numerics.Discrete_pdf.mean b)
         -. 1e-6)

(* ---- Lut ---------------------------------------------------------------- *)

let lut_grid_exact () =
  let lut =
    Numerics.Lut.create ~rows:[| 1.0; 2.0 |] ~cols:[| 10.0; 20.0 |]
      ~values:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]
  in
  close "corner 00" 1.0 (Numerics.Lut.query lut ~row:1.0 ~col:10.0);
  close "corner 11" 4.0 (Numerics.Lut.query lut ~row:2.0 ~col:20.0);
  close "center bilinear" 2.5 (Numerics.Lut.query lut ~row:1.5 ~col:15.0)

let lut_clamps () =
  let lut =
    Numerics.Lut.create ~rows:[| 1.0; 2.0 |] ~cols:[| 10.0; 20.0 |]
      ~values:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]
  in
  close "clamp low" 1.0 (Numerics.Lut.query lut ~row:0.0 ~col:0.0);
  close "clamp high" 4.0 (Numerics.Lut.query lut ~row:9.0 ~col:99.0)

let lut_of_function () =
  let lut =
    Numerics.Lut.of_function ~rows:[| 0.0; 1.0; 2.0 |] ~cols:[| 0.0; 1.0 |]
      (fun r c -> r +. (10.0 *. c))
  in
  close "tabulated" 12.0 (Numerics.Lut.query lut ~row:2.0 ~col:1.0);
  (* bilinear interpolation is exact for affine functions *)
  close "affine interp" 5.5 (Numerics.Lut.query lut ~row:0.5 ~col:0.5)

let lut_validation () =
  Alcotest.check_raises "decreasing axis"
    (Invalid_argument "Lut.create: axes must be strictly increasing") (fun () ->
      ignore
        (Numerics.Lut.create ~rows:[| 2.0; 1.0 |] ~cols:[| 1.0 |]
           ~values:[| [| 1.0 |]; [| 2.0 |] |]));
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Lut.create: values shape mismatch") (fun () ->
      ignore
        (Numerics.Lut.create ~rows:[| 1.0; 2.0 |] ~cols:[| 1.0 |]
           ~values:[| [| 1.0 |] |]))

(* The seed nested-array bilinear implementation, replicated operation for
   operation (same locate, same combination order), as the oracle the
   flattened row-major storage must match bit for bit. *)
let oracle_locate axis x =
  let n = Array.length axis in
  if n = 1 || x <= axis.(0) then (0, 0.0)
  else if x >= axis.(n - 1) then (Stdlib.max 0 (n - 2), 1.0)
  else
    let rec bisect lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if x < axis.(mid) then bisect lo mid else bisect mid hi
    in
    let i = bisect 0 (n - 1) in
    (i, (x -. axis.(i)) /. (axis.(i + 1) -. axis.(i)))

let oracle_query ~rows ~cols ~values ~row ~col =
  let nr = Array.length rows and nc = Array.length cols in
  let i, fr = oracle_locate rows row in
  let j, fc = oracle_locate cols col in
  let v00 = values.(i).(j) in
  if nr = 1 && nc = 1 then v00
  else
    let i1 = Stdlib.min (nr - 1) (i + 1) in
    let j1 = Stdlib.min (nc - 1) (j + 1) in
    let v01 = values.(i).(j1)
    and v10 = values.(i1).(j)
    and v11 = values.(i1).(j1) in
    ((1.0 -. fr) *. (((1.0 -. fc) *. v00) +. (fc *. v01)))
    +. (fr *. (((1.0 -. fc) *. v10) +. (fc *. v11)))

let lut_fixture () =
  let rows = [| 0.5; 1.0; 2.0; 4.0; 8.0 |]
  and cols = [| 1.0; 3.0; 9.0; 27.0 |] in
  let f r c = (r *. 3.1) +. (c *. 0.7) +. (r *. c *. 0.013) in
  let values = Array.map (fun r -> Array.map (f r) cols) rows in
  (rows, cols, values, Numerics.Lut.create ~rows ~cols ~values)

let prop_flat_lut_matches_seed_bilinear =
  qcheck ~count:500 "flat LUT query ≡ seed nested bilinear, bit for bit"
    QCheck.(pair (int_bound 2000) (int_bound 2000))
    (fun (ri, ci) ->
      let rows, cols, values, lut = lut_fixture () in
      (* sweep inside, on, and beyond both axes, including the clamp zone *)
      let row = -1.0 +. (float_of_int ri /. 200.0)
      and col = -1.0 +. (float_of_int ci /. 60.0) in
      Numerics.Lut.query lut ~row ~col = oracle_query ~rows ~cols ~values ~row ~col)

(* The grid corners and the four clamp quadrants beyond them, where the
   flat index arithmetic is most likely to slip a row. *)
let lut_clamp_corners () =
  let rows, cols, values, lut = lut_fixture () in
  List.iter
    (fun (row, col) ->
      check_true
        (Printf.sprintf "flat = seed oracle at (%g, %g)" row col)
        (Numerics.Lut.query lut ~row ~col
        = oracle_query ~rows ~cols ~values ~row ~col))
    [
      (-5.0, -5.0); (100.0, 100.0); (-5.0, 100.0); (100.0, -5.0);
      (0.5, 1.0); (8.0, 27.0); (1.0, 100.0); (100.0, 3.0);
    ]

(* ---- Rng ---------------------------------------------------------------- *)

let rng_deterministic () =
  let a = Numerics.Rng.create ~seed:11 and b = Numerics.Rng.create ~seed:11 in
  for _ = 1 to 100 do
    close ~tol:0.0 "same stream" (Numerics.Rng.float a) (Numerics.Rng.float b)
  done

let rng_int_bounds =
  qcheck "int within bounds" QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Numerics.Rng.create ~seed in
      let v = Numerics.Rng.int rng ~bound in
      v >= 0 && v < bound)

let rng_float_unit () =
  let rng = Numerics.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Numerics.Rng.float rng in
    check_true "in [0,1)" (v >= 0.0 && v < 1.0)
  done

let rng_gaussian_moments () =
  let rng = Numerics.Rng.create ~seed:5 in
  let stats = Numerics.Stats.create () in
  for _ = 1 to 50_000 do
    Numerics.Stats.add stats (Numerics.Rng.gaussian rng)
  done;
  close_abs ~tol:0.02 "gaussian mean" 0.0 (Numerics.Stats.mean stats);
  close ~tol:0.02 "gaussian sigma" 1.0 (Numerics.Stats.std stats)

let rng_split_differs () =
  let parent = Numerics.Rng.create ~seed:9 in
  let child = Numerics.Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Numerics.Rng.float parent = Numerics.Rng.float child then incr same
  done;
  check_true "streams diverge" (!same < 5)

let rng_shuffle_is_permutation () =
  let rng = Numerics.Rng.create ~seed:1 in
  let arr = Array.init 50 Fun.id in
  Numerics.Rng.shuffle_in_place rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ---- Stats -------------------------------------------------------------- *)

let stats_known_values () =
  let s = Numerics.Stats.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  close "mean" 5.0 (Numerics.Stats.mean s);
  close "population variance" 4.0 (Numerics.Stats.population_variance s);
  close ~tol:1e-9 "sample variance" (32.0 /. 7.0) (Numerics.Stats.variance s);
  close "min" 2.0 (Numerics.Stats.min_value s);
  close "max" 9.0 (Numerics.Stats.max_value s);
  check_int "count" 8 (Numerics.Stats.count s)

let stats_percentiles () =
  let values = List.init 101 float_of_int in
  close "median" 50.0 (Numerics.Stats.percentile values 0.5);
  close "p0" 0.0 (Numerics.Stats.percentile values 0.0);
  close "p100" 100.0 (Numerics.Stats.percentile values 1.0);
  close "p25" 25.0 (Numerics.Stats.percentile values 0.25)

let stats_sigma_over_mean () =
  let s = Numerics.Stats.of_list [ 9.0; 10.0; 11.0 ] in
  close ~tol:1e-9 "cv" (1.0 /. 10.0) (Numerics.Stats.sigma_over_mean s)

let stats_welford_matches_direct =
  qcheck ~count:100 "welford matches direct formula"
    QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = Numerics.Stats.of_list xs in
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
        /. (n -. 1.0)
      in
      Float.abs (mean -. Numerics.Stats.mean s) < 1e-6 *. (1.0 +. Float.abs mean)
      && Float.abs (var -. Numerics.Stats.variance s) < 1e-6 *. (1.0 +. var))

let () =
  Alcotest.run "numerics"
    [
      ( "erf",
        [
          Alcotest.test_case "reference values" `Quick erf_reference_values;
          Alcotest.test_case "oddness" `Quick erf_odd;
          Alcotest.test_case "erfc" `Quick erfc_complement;
          Alcotest.test_case "quadratic two decimals" `Quick quadratic_two_decimals;
          Alcotest.test_case "quadratic saturates" `Quick quadratic_saturates;
          erf_monotone;
        ] );
      ( "normal",
        [
          Alcotest.test_case "cdf values" `Quick normal_cdf_values;
          Alcotest.test_case "quantile invalid" `Quick normal_quantile_invalid;
          Alcotest.test_case "degenerate sigma" `Quick normal_degenerate_sigma;
          Alcotest.test_case "scaled" `Quick normal_scaled;
          normal_quantile_roundtrip;
        ] );
      ( "clark",
        [
          Alcotest.test_case "sum" `Quick clark_sum;
          Alcotest.test_case "max of iid" `Quick clark_max_symmetric_equal;
          Alcotest.test_case "dominant max" `Quick clark_max_dominant;
          Alcotest.test_case "cutoff branches" `Quick clark_cutoff_branches;
          Alcotest.test_case "cutoff boundary 2.6" `Quick clark_cutoff_boundary;
          Alcotest.test_case "vs monte carlo" `Quick clark_max_vs_monte_carlo;
          Alcotest.test_case "negative var rejected" `Quick
            clark_negative_var_rejected;
          Alcotest.test_case "list ops" `Quick clark_list_ops;
          clark_max_commutative;
          clark_max_bounds;
          clark_fast_close_to_exact;
        ] );
      ( "discrete_pdf",
        [
          Alcotest.test_case "constant" `Quick pdf_constant;
          Alcotest.test_case "of_normal moments" `Quick pdf_of_normal_moments;
          Alcotest.test_case "sum moments" `Quick pdf_sum_moments;
          Alcotest.test_case "max vs clark" `Quick pdf_max_matches_clark;
          Alcotest.test_case "resample preserves moments" `Quick
            pdf_resample_preserves_moments;
          Alcotest.test_case "cdf/quantile" `Quick pdf_cdf_quantile;
          Alcotest.test_case "shift/scale" `Quick pdf_shift_scale;
          Alcotest.test_case "of_samples" `Quick pdf_of_samples;
          Alcotest.test_case "empty rejected" `Quick pdf_empty_rejected;
          pdf_ops_keep_invariants;
          pdf_max_ge_means;
        ] );
      ( "lut",
        [
          Alcotest.test_case "grid exact" `Quick lut_grid_exact;
          Alcotest.test_case "clamps" `Quick lut_clamps;
          Alcotest.test_case "of_function" `Quick lut_of_function;
          Alcotest.test_case "validation" `Quick lut_validation;
          prop_flat_lut_matches_seed_bilinear;
          Alcotest.test_case "clamp corners" `Quick lut_clamp_corners;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "float unit interval" `Quick rng_float_unit;
          Alcotest.test_case "gaussian moments" `Quick rng_gaussian_moments;
          Alcotest.test_case "split differs" `Quick rng_split_differs;
          Alcotest.test_case "shuffle permutation" `Quick rng_shuffle_is_permutation;
          rng_int_bounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick stats_known_values;
          Alcotest.test_case "percentiles" `Quick stats_percentiles;
          Alcotest.test_case "sigma over mean" `Quick stats_sigma_over_mean;
          stats_welford_matches_direct;
        ] );
    ]
