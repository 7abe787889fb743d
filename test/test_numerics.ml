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
  let s = Numerics.Discrete_pdf.sum ~samples:12 a b in
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
  let s = Numerics.Discrete_pdf.of_normal ~samples:100 ~mean:101.0 ~sigma:7.0 () in
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
      (* a budget of na·nb keeps every cross point: the unresampled sum *)
      let all =
        Numerics.Discrete_pdf.(support_size a * support_size b)
      in
      Numerics.Discrete_pdf.check_invariants
        (Numerics.Discrete_pdf.sum ~samples:all a b)
      && Numerics.Discrete_pdf.check_invariants (Numerics.Discrete_pdf.max2 a b)
      && Numerics.Discrete_pdf.check_invariants
           (Numerics.Discrete_pdf.sum ~samples:10 a b))

let pdf_max_ge_means =
  qcheck ~count:100 "E[max] >= both means" (QCheck.pair gen_pdf gen_pdf)
    (fun (a, b) ->
      let m = Numerics.Discrete_pdf.max2 a b in
      Numerics.Discrete_pdf.mean m
      >= Float.max (Numerics.Discrete_pdf.mean a) (Numerics.Discrete_pdf.mean b)
         -. 1e-6)

(* ---- Discrete_pdf kernels vs the composition they replaced -------------- *)

(* The pdf kernels as they stood when FULLSSTA's arc step was the
   composition [resample (sum a b) ~samples]: [sort_points],
   [normalize_arrays], the unresampled [sum] and [resample], copied verbatim
   bar the statobs counters and the domain-local pool, as the oracle the
   fused [Discrete_pdf.sum ~samples] and [resample]'s shared binning must
   match bit for bit. [normalize] (behind [of_points]), [of_normal] and
   [max2] come along unchanged, so that the constructors built on the
   shared sort and cluster steps are checked too and a whole FULLSSTA pass
   can be rebuilt in the oracle's representation. *)
module Oracle_pdf = struct
  type t = { xs : float array; ps : float array }

  let epsilon_mass = 1e-12

  type scratch = {
    mutable s1 : float array;
    mutable s2 : float array;
    mutable s3 : float array;
    mutable s4 : float array;
    mutable s5 : float array;
  }

  let pool = { s1 = [||]; s2 = [||]; s3 = [||]; s4 = [||]; s5 = [||] }

  let scratch_get n =
    let s = pool in
    if Array.length s.s1 < n then begin
      let m = Stdlib.max n (2 * Array.length s.s1) in
      s.s1 <- Array.make m 0.0;
      s.s2 <- Array.make m 0.0;
      s.s3 <- Array.make m 0.0;
      s.s4 <- Array.make m 0.0;
      s.s5 <- Array.make m 0.0
    end;
    s

  let sort_points xs ps n =
    (* supports are finite and non-NaN (module invariant), so the raw float
       comparison is exact and avoids an external call per element *)
    let sorted = ref true in
    for i = 1 to n - 1 do
      if xs.(i - 1) > xs.(i) then sorted := false
    done;
    if not !sorted then begin
      let idx = Array.init n Fun.id in
      let tmp = Array.make n 0 in
      let width = ref 1 in
      while !width < n do
        let w = !width in
        let lo = ref 0 in
        while !lo < n - w do
          let mid = !lo + w and hi = Stdlib.min (!lo + (2 * w)) n in
          Array.blit idx !lo tmp !lo (hi - !lo);
          let i = ref !lo and j = ref mid and k = ref !lo in
          while !i < mid && !j < hi do
            if Float.compare xs.(tmp.(!i)) xs.(tmp.(!j)) <= 0 then begin
              idx.(!k) <- tmp.(!i);
              incr i
            end
            else begin
              idx.(!k) <- tmp.(!j);
              incr j
            end;
            incr k
          done;
          while !i < mid do
            idx.(!k) <- tmp.(!i);
            incr i;
            incr k
          done;
          while !j < hi do
            idx.(!k) <- tmp.(!j);
            incr j;
            incr k
          done;
          lo := !lo + (2 * w)
        done;
        width := 2 * w
      done;
      let xs' = Array.make n 0.0 and ps' = Array.make n 0.0 in
      for i = 0 to n - 1 do
        xs'.(i) <- xs.(idx.(i));
        ps'.(i) <- ps.(idx.(i))
      done;
      Array.blit xs' 0 xs 0 n;
      Array.blit ps' 0 ps 0 n
    end

  let normalize_arrays xs ps n =
    let k = ref 0 in
    for i = 0 to n - 1 do
      if ps.(i) > epsilon_mass then begin
        xs.(!k) <- xs.(i);
        ps.(!k) <- ps.(i);
        incr k
      end
    done;
    let n = !k in
    sort_points xs ps n;
    (* Merge clusters of support points within 1e-12 relative distance of the
       cluster's first point, accumulating mass in ascending order. *)
    let m = ref 0 in
    for i = 0 to n - 1 do
      if
        !m > 0
        && Float.abs (xs.(i) -. xs.(!m - 1))
           <= 1e-12 *. (1.0 +. Float.abs xs.(!m - 1))
      then ps.(!m - 1) <- ps.(!m - 1) +. ps.(i)
      else begin
        xs.(!m) <- xs.(i);
        ps.(!m) <- ps.(i);
        incr m
      end
    done;
    let m = !m in
    let total = ref 0.0 in
    for i = 0 to m - 1 do
      total := !total +. ps.(i)
    done;
    if !total <= 0.0 then invalid_arg "Discrete_pdf: no probability mass";
    let rxs = Array.sub xs 0 m in
    let rps = Array.make m 0.0 in
    for i = 0 to m - 1 do
      rps.(i) <- ps.(i) /. !total
    done;
    { xs = rxs; ps = rps }

  let normalize points =
    let n = List.length points in
    let xs = Array.make (Stdlib.max n 1) 0.0
    and ps = Array.make (Stdlib.max n 1) 0.0 in
    List.iteri
      (fun i (x, p) ->
        xs.(i) <- x;
        ps.(i) <- p)
      points;
    normalize_arrays xs ps n

  let constant x = { xs = [| x |]; ps = [| 1.0 |] }
  let min_value t = t.xs.(0)
  let max_value t = t.xs.(Array.length t.xs - 1)

  let of_normal ?(span = 4.0) ~samples ~mean ~sigma () =
    if samples < 1 then invalid_arg "Discrete_pdf.of_normal: samples < 1";
    if sigma <= 0.0 then constant mean
    else
      let lo = mean -. (span *. sigma) and hi = mean +. (span *. sigma) in
      let step = (hi -. lo) /. float_of_int samples in
      (* both boundary CDF evaluations stay per bin: [left +. step] of one bin
         and [lo +. i *. step] of the next are not bitwise equal, so sharing
         them would perturb the masses in the last ulp *)
      let s = scratch_get samples in
      let xs = s.s1 and ps = s.s2 in
      for i = 0 to samples - 1 do
        let left = lo +. (float_of_int i *. step) in
        let right = left +. step in
        xs.(i) <- 0.5 *. (left +. right);
        ps.(i) <-
          Numerics.Normal.cdf_at ~mean ~sigma right -. Numerics.Normal.cdf_at ~mean ~sigma left
      done;
      normalize_arrays xs ps samples

  let resample t ~samples =
    if samples < 1 then invalid_arg "Discrete_pdf.resample: samples < 1";
    let n = Array.length t.xs in
    if n <= 2 * samples then t
    else
      let lo = min_value t and hi = max_value t in
      if hi <= lo then constant lo
      else
        let width = (hi -. lo) /. float_of_int samples in
        let s = scratch_get (2 * samples) in
        let mass = s.s1 and m1 = s.s2 and m2 = s.s3 in
        Array.fill mass 0 samples 0.0;
        Array.fill m1 0 samples 0.0;
        Array.fill m2 0 samples 0.0;
        for i = 0 to n - 1 do
          let x = t.xs.(i) in
          let p = t.ps.(i) in
          let b =
            Stdlib.min (samples - 1) (int_of_float ((x -. lo) /. width))
          in
          mass.(b) <- mass.(b) +. p;
          m1.(b) <- m1.(b) +. (p *. x);
          m2.(b) <- m2.(b) +. (p *. x *. x)
        done;
        let bxs = s.s4 and bps = s.s5 in
        let k = ref 0 in
        for b = 0 to samples - 1 do
          if mass.(b) > epsilon_mass then begin
            let mu = m1.(b) /. mass.(b) in
            let var = Float.max ((m2.(b) /. mass.(b)) -. (mu *. mu)) 0.0 in
            let sd = Float.sqrt var in
            if sd > 1e-9 *. (1.0 +. Float.abs mu) then begin
              bxs.(!k) <- mu -. sd;
              bps.(!k) <- 0.5 *. mass.(b);
              incr k;
              bxs.(!k) <- mu +. sd;
              bps.(!k) <- 0.5 *. mass.(b);
              incr k
            end
            else begin
              bxs.(!k) <- mu;
              bps.(!k) <- mass.(b);
              incr k
            end
          end
        done;
        normalize_arrays bxs bps !k

  let sum a b =
    let na = Array.length a.xs and nb = Array.length b.xs in
    let n = na * nb in
    let s = scratch_get n in
    let xs = s.s1 and ps = s.s2 in
    (* runs keep the historical outer order (descending index) so equal
       support values across runs retain their generation order for the
       stable merge; within a run values are strictly increasing, so the
       ascending inner traversal cannot reorder ties *)
    let k = ref 0 in
    for i = na - 1 downto 0 do
      let xa = a.xs.(i) and pa = a.ps.(i) in
      for j = 0 to nb - 1 do
        xs.(!k) <- xa +. b.xs.(j);
        ps.(!k) <- pa *. b.ps.(j);
        incr k
      done
    done;
    if na > 1 then begin
      let tx = s.s3 and tp = s.s4 in
      let src_x = ref xs
      and src_p = ref ps
      and dst_x = ref tx
      and dst_p = ref tp in
      let width = ref nb in
      while !width < n do
        let w = !width in
        let sx = !src_x and sp = !src_p and dx = !dst_x and dp = !dst_p in
        let lo = ref 0 in
        while !lo < n do
          let mid = Stdlib.min (!lo + w) n
          and hi = Stdlib.min (!lo + (2 * w)) n in
          let i = ref !lo and j = ref mid and k = ref !lo in
          while !i < mid && !j < hi do
            (* raw [<=] is exact here: supports are finite and non-NaN *)
            if sx.(!i) <= sx.(!j) then begin
              dx.(!k) <- sx.(!i);
              dp.(!k) <- sp.(!i);
              incr i
            end
            else begin
              dx.(!k) <- sx.(!j);
              dp.(!k) <- sp.(!j);
              incr j
            end;
            incr k
          done;
          while !i < mid do
            dx.(!k) <- sx.(!i);
            dp.(!k) <- sp.(!i);
            incr i;
            incr k
          done;
          while !j < hi do
            dx.(!k) <- sx.(!j);
            dp.(!k) <- sp.(!j);
            incr j;
            incr k
          done;
          lo := !lo + (2 * w)
        done;
        let x = !src_x and p = !src_p in
        src_x := !dst_x;
        src_p := !dst_p;
        dst_x := x;
        dst_p := p;
        width := 2 * w
      done;
      normalize_arrays !src_x !src_p n
    end
    else normalize_arrays xs ps n

  let max2 a b =
    let na = Array.length a.xs and nb = Array.length b.xs in
    let xs = Array.make (na + nb) 0.0 and ps = Array.make (na + nb) 0.0 in
    let m = ref 0 in
    let ia = ref 0 and ib = ref 0 in
    let fa = ref 0.0 and fb = ref 0.0 in
    let prev = ref 0.0 in
    while !ia < na || !ib < nb do
      let x =
        if !ia >= na then b.xs.(!ib)
        else if !ib >= nb then a.xs.(!ia)
        else Float.min a.xs.(!ia) b.xs.(!ib)
      in
      while !ia < na && a.xs.(!ia) <= x do
        fa := !fa +. a.ps.(!ia);
        incr ia
      done;
      while !ib < nb && b.xs.(!ib) <= x do
        fb := !fb +. b.ps.(!ib);
        incr ib
      done;
      let f = Float.min !fa 1.0 *. Float.min !fb 1.0 in
      let mass = f -. !prev in
      prev := f;
      if mass > epsilon_mass then begin
        xs.(!m) <- x;
        ps.(!m) <- mass;
        incr m
      end
    done;
    normalize_arrays xs ps !m

  let max_list = function
    | [] -> invalid_arg "Discrete_pdf.max_list: empty"
    | t :: rest -> List.fold_left max2 t rest

  let of_pdf p =
    let pts = Numerics.Discrete_pdf.points p in
    {
      xs = Array.of_list (List.map fst pts);
      ps = Array.of_list (List.map snd pts);
    }
end

(* [Discrete_pdf.t] is abstract, so kernel results are compared with oracle
   pdfs point by point at the bit level — stricter than
   [Discrete_pdf.equal], which also identifies 0.0 with -0.0. *)
let same_bits p (o : Oracle_pdf.t) =
  let bits x = Int64.bits_of_float x in
  let pts = Numerics.Discrete_pdf.points p in
  List.length pts = Array.length o.xs
  && List.for_all2
       (fun (x, p) (ox, op) ->
         Int64.equal (bits x) (bits ox) && Int64.equal (bits p) (bits op))
       pts
       (Array.to_list (Array.map2 (fun x p -> (x, p)) o.xs o.ps))

(* Pdfs that reach the kernels' edge cases: integer supports (exact cross-sum
   ties across runs), supports jittered by multiples of 3e-13 (cross sums
   within the 1e-12 cluster radius of one another), tiny masses (cross
   products at or below epsilon_mass, and normalized masses at or below it
   when the raw total exceeds 2), constants, and discretized normals. *)
let gen_edge_value =
  QCheck.Gen.(
    frequency
      [
        (3, map float_of_int (int_range (-4) 24));
        ( 2,
          map2
            (fun i j -> float_of_int i +. (float_of_int j *. 3e-13))
            (int_range 0 24) (int_range (-3) 3) );
        (1, float_range (-50.0) 250.0);
      ])

let gen_edge_mass =
  QCheck.Gen.(
    frequency
      [
        (4, float_range 0.0 1.0);
        (1, oneofl [ 0.0; 1e-13; 1e-12; 2e-12; 3e-12; 1e-7; 1e-6; 1e-3 ]);
      ])

(* Raw (value, mass) lists in arbitrary order, one point of mass 1 first so
   some mass always survives the filter. *)
let gen_edge_points =
  QCheck.Gen.(
    map2
      (fun v pts -> (v, 1.0) :: pts)
      gen_edge_value
      (list_size (int_range 0 30) (pair gen_edge_value gen_edge_mass)))

let gen_edge_pdf =
  let open QCheck.Gen in
  frequency
    [
      (1, map Numerics.Discrete_pdf.constant gen_edge_value);
      ( 1,
        map3
          (fun mean sigma samples ->
            Numerics.Discrete_pdf.of_normal ~samples ~mean ~sigma ())
          (float_range 0.0 200.0) (float_range 0.0 20.0) (int_range 1 30) );
      (5, map Numerics.Discrete_pdf.of_points gen_edge_points);
    ]

(* (a, b, samples) with b == a about one case in seven (every cross-sum tie
   pattern at once) and samples over 1..20, so supports of at most
   2·samples cross points (the early return) are common too. *)
let arb_kernel_case =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (a, b, samples) ->
      Printf.sprintf "samples=%d a=%s b=%s%s" samples
        (Fmt.str "%a" Numerics.Discrete_pdf.pp a)
        (Fmt.str "%a" Numerics.Discrete_pdf.pp b)
        (if a == b then " (a == b)" else ""))
    (map3
       (fun a b samples ->
         ((a, (match b with Some b -> b | None -> a)), samples))
       gen_edge_pdf (opt ~ratio:0.85 gen_edge_pdf) (int_range 1 20)
    |> map (fun ((a, b), samples) -> (a, b, samples)))

let prop_sum_matches_composition =
  qcheck ~count:1000 "sum ~samples ≡ oracle resample (sum a b), bit for bit"
    arb_kernel_case (fun (a, b, samples) ->
      let open Numerics.Discrete_pdf in
      let oa = Oracle_pdf.of_pdf a and ob = Oracle_pdf.of_pdf b in
      let unresampled = Oracle_pdf.sum oa ob in
      (* a budget of na·nb keeps every cross point: the unresampled sum *)
      let all = sum ~samples:(support_size a * support_size b) a b in
      same_bits (sum ~samples a b) (Oracle_pdf.resample unresampled ~samples)
      && same_bits all unresampled
      && same_bits (resample all ~samples)
           (Oracle_pdf.resample unresampled ~samples)
      && same_bits (resample a ~samples) (Oracle_pdf.resample oa ~samples)
      && same_bits (max2 a b) (Oracle_pdf.max2 oa ob))

let prop_of_points_matches_oracle =
  qcheck ~count:500 "of_points ≡ oracle normalize, bit for bit"
    (QCheck.make
       ~print:QCheck.Print.(list (pair float float))
       gen_edge_points)
    (fun pts ->
      same_bits (Numerics.Discrete_pdf.of_points pts) (Oracle_pdf.normalize pts))

let prop_of_normal_matches_oracle =
  qcheck ~count:300 "of_normal ≡ oracle of_normal, bit for bit"
    QCheck.(
      triple (float_range (-100.0) 400.0) (float_range 0.0 30.0)
        (int_range 1 60))
    (fun (mean, sigma, samples) ->
      same_bits
        (Numerics.Discrete_pdf.of_normal ~samples ~mean ~sigma ())
        (Oracle_pdf.of_normal ~samples ~mean ~sigma ()))

(* The composition checked its budget in [resample], after the sum, so the
   fused kernel raises resample's error. *)
let pdf_sum_rejects_zero_samples () =
  let a = Numerics.Discrete_pdf.of_normal ~samples:12 ~mean:10.0 ~sigma:3.0 () in
  Alcotest.check_raises "samples < 1"
    (Invalid_argument "Discrete_pdf.resample: samples < 1") (fun () ->
      ignore (Numerics.Discrete_pdf.sum ~samples:0 a a))

(* FULLSSTA's arc step at its real shape — a 24-point resampled arrival plus
   a 12-point arc, 288 cross points — allocates nothing directly in the
   major heap and little more than its 24-point result on the minor heap.
   The composition it replaced built the 288-point sum, whose arrays are
   past the 256-word minor-heap limit: 58 minor and 578 direct major words
   per call. Full majors before each reading flush the runtime's major
   allocation statistics. *)
let pdf_sum_allocation_pin () =
  let open Numerics.Discrete_pdf in
  let arrival =
    sum ~samples:12
      (of_normal ~samples:12 ~mean:100.0 ~sigma:9.0 ())
      (of_normal ~samples:12 ~mean:104.0 ~sigma:12.0 ())
  in
  check_int "24-point resampled arrival" 24 (support_size arrival);
  let arc = of_normal ~samples:12 ~mean:20.0 ~sigma:3.0 () in
  ignore (sum ~samples:12 arrival arc);
  let calls = 100 in
  let direct (q : Gc.stat) = q.major_words -. q.promoted_words in
  Gc.full_major ();
  let q0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (sum ~samples:12 arrival arc))
  done;
  let w1 = Gc.minor_words () in
  Gc.full_major ();
  let q1 = Gc.quick_stat () in
  let per_call x = x /. float_of_int calls in
  close_abs ~tol:0.0 "direct major words per call" 0.0
    (per_call (direct q1 -. direct q0));
  let minor = per_call (w1 -. w0) in
  check_true (Printf.sprintf "minor words per call %.1f <= 64" minor)
    (minor <= 64.0)

(* Every node pdf of FULLSSTA equals a pass rebuilt from the oracle kernels:
   the same topological sweep, arcs discretized by the oracle's [of_normal],
   each arc step the composition [resample (sum …)], each node step
   [resample (max_list …)]. *)
let fullssta_matches_oracle_pass () =
  List.iter
    (fun name ->
      let c = Benchgen.Iscas_like.build_exn ~lib name in
      let _ = Core.Initial_sizing.apply ~lib c in
      let full = Ssta.Fullssta.run c in
      let config = Ssta.Fullssta.default_config in
      let samples = config.Ssta.Fullssta.samples in
      let electrical = Ssta.Fullssta.electrical full in
      let pdfs =
        Array.make (Netlist.Circuit.size c)
          (Oracle_pdf.constant Sta.Electrical.input_arrival)
      in
      List.iter
        (fun id ->
          let fanins = Netlist.Circuit.fanins c id in
          if Array.length fanins > 0 then begin
            let strength = Cells.Cell.strength (Netlist.Circuit.cell_exn c id) in
            let arrivals =
              Array.mapi
                (fun k fi ->
                  let delay = (Sta.Electrical.arc_delays electrical id).(k) in
                  let sigma =
                    Variation.Model.sigma config.Ssta.Fullssta.model ~delay
                      ~strength
                  in
                  let arc =
                    Oracle_pdf.of_normal ~samples ~mean:delay ~sigma ()
                  in
                  Oracle_pdf.resample (Oracle_pdf.sum pdfs.(fi) arc) ~samples)
                fanins
            in
            pdfs.(id) <-
              Oracle_pdf.resample
                (Oracle_pdf.max_list (Array.to_list arrivals))
                ~samples
          end)
        (Netlist.Circuit.topological c);
      Array.iteri
        (fun id o ->
          if not (same_bits (Ssta.Fullssta.pdf full id) o) then
            Alcotest.failf "%s: node %s differs from the oracle pass" name
              (Netlist.Circuit.node_name c id))
        pdfs)
    [ "c432"; "c880" ]

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

(* The seed's clamp test, verbatim: whether a query counts as out of range. *)
let oracle_in_range axis x = x >= axis.(0) && x <= axis.(Array.length axis - 1)

let lut_fixture () =
  let rows = [| 0.5; 1.0; 2.0; 4.0; 8.0 |]
  and cols = [| 1.0; 3.0; 9.0; 27.0 |] in
  let f r c = (r *. 3.1) +. (c *. 0.7) +. (r *. c *. 0.013) in
  let values = Array.map (fun r -> Array.map (f r) cols) rows in
  (rows, cols, values, Numerics.Lut.create ~rows ~cols ~values)

(* Every table shape [eval] special-cases: the 5×4 grid above, single-row
   and single-column tables (an axis of length 1 never interpolates), a 1×1
   table, and a signed grid through zero whose entries include -0.0, where
   only a bitwise comparison tells a sign-of-zero slip from the right
   answer. *)
let lut_fixtures () =
  let table rows cols f =
    let values = Array.map (fun r -> Array.map (f r) cols) rows in
    (rows, cols, values, Numerics.Lut.create ~rows ~cols ~values)
  in
  let smooth r c = (r *. 3.1) +. (c *. 0.7) +. (r *. c *. 0.013) in
  [
    lut_fixture ();
    table [| 2.0 |] [| 1.0; 3.0; 9.0; 27.0 |] smooth;
    table [| 0.5; 1.0; 2.0; 4.0; 8.0 |] [| 9.0 |] smooth;
    table [| 2.0 |] [| 9.0 |] (fun _ _ -> -0.0);
    table [| 0.0; 1.0; 4.0 |] [| -3.0; 0.0; 5.0 |] (fun r c ->
        if r = 0.0 then -0.0 else -.(r *. c));
  ]

(* One query against the seed oracle: the value must match bit for bit, and
   the table's out-of-range counter must move by exactly the oracle's
   verdict (1 when either coordinate clamps, else 0). *)
let lut_query_matches_oracle (rows, cols, values, lut) ~row ~col =
  let before = Numerics.Lut.oob_count lut in
  let v = Numerics.Lut.query lut ~row ~col in
  let moved = Numerics.Lut.oob_count lut - before in
  let expected_moved =
    if oracle_in_range rows row && oracle_in_range cols col then 0 else 1
  in
  Int64.equal
    (Int64.bits_of_float v)
    (Int64.bits_of_float (oracle_query ~rows ~cols ~values ~row ~col))
  && moved = expected_moved

let prop_flat_lut_matches_seed_bilinear =
  qcheck ~count:500 "flat LUT query ≡ seed nested bilinear, bit for bit"
    QCheck.(pair (int_bound 2000) (int_bound 2000))
    (fun (ri, ci) ->
      (* sweep inside, on, and beyond both axes, including the clamp zone *)
      let row = -1.0 +. (float_of_int ri /. 200.0)
      and col = -4.0 +. (float_of_int ci /. 60.0) in
      List.for_all
        (fun fx -> lut_query_matches_oracle fx ~row ~col)
        (lut_fixtures ()))

(* The grid corners and the four clamp quadrants beyond them, where the
   flat index arithmetic is most likely to slip a row, then every exact grid
   point paired with every grid coordinate and with points beyond both
   edges, on every fixture shape. *)
let lut_clamp_corners () =
  let rows, cols, values, lut = lut_fixture () in
  List.iter
    (fun (row, col) ->
      check_true
        (Printf.sprintf "flat = seed oracle at (%g, %g)" row col)
        (lut_query_matches_oracle (rows, cols, values, lut) ~row ~col))
    [
      (-5.0, -5.0); (100.0, 100.0); (-5.0, 100.0); (100.0, -5.0);
      (0.5, 1.0); (8.0, 27.0); (1.0, 100.0); (100.0, 3.0);
    ];
  List.iter
    (fun ((rows, cols, _, _) as fx) ->
      let around axis =
        Array.to_list axis
        @ [ axis.(0) -. 1.0; axis.(Array.length axis - 1) +. 1.0; -0.0; 0.0 ]
      in
      List.iter
        (fun row ->
          List.iter
            (fun col ->
              check_true
                (Printf.sprintf "%dx%d table: flat = seed oracle at (%g, %g)"
                   (Array.length rows) (Array.length cols) row col)
                (lut_query_matches_oracle fx ~row ~col))
            (around cols))
        (around rows))
    (lut_fixtures ())

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

let bits = Int64.bits_of_float

(* Any seed, with the rejection seed mixed in. *)
let gen_seed = QCheck.Gen.(frequency [ (1, return rejection_seed); (6, int) ])

(* Buffer windows that start anywhere, are empty, or end at the buffer's
   last slot. *)
let arb_fill_case =
  QCheck.make
    ~print:(fun (seed, pos, len, slack) ->
      Printf.sprintf "seed=%d pos=%d len=%d slack=%d" seed pos len slack)
    QCheck.Gen.(
      quad gen_seed
        (frequency [ (1, return 0); (3, int_bound 8) ])
        (frequency [ (1, return 0); (4, int_bound 40) ])
        (frequency [ (1, return 0); (1, int_bound 5) ]))

let prop_fill_gaussian_matches_oracle =
  qcheck ~count:500 "fill_gaussian ≡ len oracle gaussian draws, state included"
    arb_fill_case (fun (seed, pos, len, slack) ->
      let rng = Numerics.Rng.create ~seed and o = Oracle_rng.create ~seed in
      let sentinel = 42.0 in
      let got = Array.make (pos + len + slack) sentinel in
      let want = Array.copy got in
      Numerics.Rng.fill_gaussian rng got ~pos ~len;
      for i = pos to pos + len - 1 do
        want.(i) <- Oracle_rng.gaussian o
      done;
      Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) got want
      && Int64.equal (bits (Numerics.Rng.float rng)) (bits (Oracle_rng.float o))
      && Numerics.Rng.int rng ~bound:1_000_003 = Oracle_rng.int o ~bound:1_000_003
      && Numerics.Rng.bool rng = Oracle_rng.bool o
      && Int64.equal
           (bits (Numerics.Rng.gaussian rng))
           (bits (Oracle_rng.gaussian o)))

(* Benchmark circuits are built from create/split/float/int/bool/shuffle,
   so every operation must return the oracle's value, in any interleaving. *)
let prop_rng_surface_matches_oracle =
  qcheck ~count:300 "every Rng operation ≡ oracle, in any order"
    QCheck.(
      pair
        (make ~print:string_of_int gen_seed)
        (list_of_size (Gen.int_range 1 40) (int_bound 6)))
    (fun (seed, ops) ->
      let rng = ref (Numerics.Rng.create ~seed)
      and o = ref (Oracle_rng.create ~seed) in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
              Int64.equal (bits (Numerics.Rng.float !rng)) (bits (Oracle_rng.float !o))
          | 1 -> Numerics.Rng.int !rng ~bound:97 = Oracle_rng.int !o ~bound:97
          | 2 -> Numerics.Rng.bool !rng = Oracle_rng.bool !o
          | 3 ->
              Int64.equal
                (bits (Numerics.Rng.gaussian !rng))
                (bits (Oracle_rng.gaussian !o))
          | 4 ->
              rng := Numerics.Rng.split !rng;
              o := Oracle_rng.split !o;
              true
          | 5 ->
              let a = Array.init 9 Fun.id and b = Array.init 9 Fun.id in
              Numerics.Rng.shuffle_in_place !rng a;
              Oracle_rng.shuffle_in_place !o b;
              a = b
          | _ ->
              Int64.equal
                (bits (Numerics.Rng.float_range !rng ~lo:(-3.0) ~hi:5.0))
                (bits (Oracle_rng.float_range !o ~lo:(-3.0) ~hi:5.0)))
        ops)

(* A window outside the buffer raises before drawing anything. *)
let rng_fill_gaussian_rejects_bad_window () =
  let rng = Numerics.Rng.create ~seed:1 in
  let a = Array.make 5 0.0 in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos=%d len=%d" pos len)
        (Invalid_argument "Rng.fill_gaussian")
        (fun () -> Numerics.Rng.fill_gaussian rng a ~pos ~len))
    [ (-1, 1); (0, -1); (0, 6); (5, 1); (3, 3); (6, 0); (max_int, 1); (1, max_int) ];
  check_true "state untouched"
    (Int64.equal
       (bits (Numerics.Rng.float rng))
       (bits (Oracle_rng.float (Oracle_rng.create ~seed:1))))

(* The state lives in a local for the whole fill and is written back once:
   one boxed int64, whatever the length. [gaussian] allocates 22 words per
   draw. *)
let rng_fill_allocation_pin () =
  let rng = Numerics.Rng.create ~seed:3 in
  let a = Array.make 10_000 0.0 in
  Numerics.Rng.fill_gaussian rng a ~pos:0 ~len:10_000;
  let w0 = Gc.minor_words () in
  Numerics.Rng.fill_gaussian rng a ~pos:0 ~len:10_000;
  let words = Gc.minor_words () -. w0 in
  check_true
    (Printf.sprintf "minor words per 10,000-draw fill %.0f <= 8" words)
    (words <= 8.0)

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
          prop_sum_matches_composition;
          prop_of_points_matches_oracle;
          prop_of_normal_matches_oracle;
          Alcotest.test_case "sum rejects zero samples" `Quick
            pdf_sum_rejects_zero_samples;
          Alcotest.test_case "sum allocation pin" `Quick pdf_sum_allocation_pin;
          Alcotest.test_case "fullssta = oracle pass" `Quick
            fullssta_matches_oracle_pass;
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
          prop_fill_gaussian_matches_oracle;
          prop_rng_surface_matches_oracle;
          Alcotest.test_case "fill_gaussian rejects bad window" `Quick
            rng_fill_gaussian_rejects_bad_window;
          Alcotest.test_case "fill allocation pin" `Quick rng_fill_allocation_pin;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick stats_known_values;
          Alcotest.test_case "percentiles" `Quick stats_percentiles;
          Alcotest.test_case "sigma over mean" `Quick stats_sigma_over_mean;
          stats_welford_matches_direct;
        ] );
    ]
