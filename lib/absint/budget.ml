(* Certified per-step error constants for the fast Clark max.

   Everything here is a sup of an explicit elementary function, evaluated on
   a dense grid and padded outward by

     (grid step / 2) * (certified bound on the integrand's derivative)
     + the reference erf's own absolute error (1.5e-7, A&S 7.1.26)
     + a float round-off cushion,

   so each exported constant is a true upper bound of the mathematical sup.
   The derivations live in DESIGN.md §9.2; the key algebraic identity used
   for the variance constants is (with sp² = varA + varB, α = (μA−μB)/sp,
   e₁ = sp·(φ(α) − αΦ(−α)) the Mills-gap term, all for ρ = 0):

     Var_exact(max) = varA + (varB − varA)·Φ(−α) + (μB − μA)·e₁ − e₁²

   which is verified numerically by the test suite against Clark.max_exact. *)

let phi = Numerics.Normal.pdf
let cdf = Numerics.Normal.cdf
let cdf_q = Numerics.Normal.cdf_fast
let cutoff = Numerics.Clark.cutoff

(* Reference-function slack: A&S erf error plus round-off headroom. *)
let reference_pad = 1e-6

let grid_sup ~lo ~hi ~step ~deriv_bound f =
  let n = int_of_float (Float.ceil ((hi -. lo) /. step)) in
  let best = ref neg_infinity in
  for i = 0 to n do
    let x = Float.min hi (lo +. (float_of_int i *. step)) in
    let v = f x in
    if v > !best then best := v
  done;
  !best +. (0.5 *. step *. deriv_bound) +. reference_pad

(* sup |Φq − Φ|. Both functions are odd around 1/2, so [0, ∞) suffices; past
   the saturation point Φq = 1 and the gap Φ(−x) only decreases, so the grid
   stops a little beyond the cutoff. Derivative bound: |Φq'| ≤ 0.44 on the
   quadratic segment (0.1·(4.4 − 2x) at x = 0) and |Φ'| ≤ 0.4. *)
let eps_phi =
  grid_sup ~lo:0.0 ~hi:(cutoff +. 0.5) ~step:1e-4 ~deriv_bound:0.84 (fun x ->
      Float.abs (cdf_q x -. cdf x))

(* Cutoff branch, mean: E_exact − μ_dominant = e₁ = sp·(φ(α) − αΦ(−α)) ≥ 0,
   and d/dα [φ − αΦ(−α)] = −Φ(−α) < 0, so the sup over |α| ≥ 2.6 is attained
   exactly at the cutoff. *)
let k_cutoff_mean = phi cutoff -. (cutoff *. cdf (-.cutoff)) +. reference_pad

(* Cutoff branch, variance: from the identity above, with |varB − varA| ≤
   sp², |μB − μA| = α·sp and e₁ ≤ sp·(φ − αΦ(−α)):
     |Var_exact − var_dominant| ≤ sp²·(Φ(−α) + α·e₁(α) + e₁(α)²).
   The bracket is maximal near the cutoff and decays like φ(α); the grid
   runs far enough out that the tail is below the attained sup. Derivative
   bound 1.0 is generous (each term's slope is O(φ(α)) ≤ 0.02 past 2.6). *)
let k_cutoff_var =
  grid_sup ~lo:cutoff ~hi:8.0 ~step:1e-3 ~deriv_bound:1.0 (fun a ->
      let e1 = phi a -. (a *. cdf (-.a)) in
      cdf (-.a) +. (a *. e1) +. (e1 *. e1))

(* Blended branch, mean: E_fast − E_exact = (μA − μB)·(Φq − Φ)(α)
   = sp · α·ε(α). |d/dα [α·ε]| ≤ |ε| + |α|(0.44 + 0.4) ≤ 2.2 on the range. *)
let k_blend_mean =
  grid_sup ~lo:0.0 ~hi:cutoff ~step:1e-4 ~deriv_bound:2.2 (fun a ->
      Float.abs (a *. (cdf_q a -. cdf a)))

(* Blended branch, variance. Shift-invariance lets us set μB = 0, μA = α·sp;
   expanding Var_fast − Var_exact with ε = Φq − Φ gives
     ε·[ (μA−μB)(μA+μB−2·E_exact) + (σA²−σB²) − ε·(μA−μB)² ]
   whose magnitude is ≤ sp²·|ε(α)|·( |α|·|α(1−2Φ(α)) − 2φ(α)| + 1 + ε·α² ).
   The bracket is bounded by ≈ 8 on |α| ≤ 2.6 and its slope by ≈ 40, so a
   1e-4 grid with derivative bound 50 certifies the sup comfortably. *)
let k_blend_var =
  grid_sup ~lo:0.0 ~hi:cutoff ~step:1e-4 ~deriv_bound:50.0 (fun a ->
      let eps = Float.abs (cdf_q a -. cdf a) in
      eps
      *. ((a *. Float.abs ((a *. (1.0 -. (2.0 *. cdf a))) -. (2.0 *. phi a)))
          +. 1.0
          +. (eps *. a *. a)))

let k_mean = Float.max k_cutoff_mean k_blend_mean
let k_var = Float.max k_cutoff_var k_blend_var

let mean_step ~certain_cutoff ~spread_hi =
  (if certain_cutoff then k_cutoff_mean else k_mean) *. spread_hi

let var_step ~certain_cutoff ~spread_hi =
  (if certain_cutoff then k_cutoff_var else k_var) *. spread_hi *. spread_hi

let sigma_step ~certain_cutoff ~spread_hi =
  Float.sqrt (if certain_cutoff then k_cutoff_var else k_var) *. spread_hi
