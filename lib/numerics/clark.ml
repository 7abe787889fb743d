(* Moments of max(A, B) for (jointly) normal A, B — C. E. Clark, "The greatest
   of a finite set of random variables", Operations Research 9 (1961); the
   paper's equations (1)-(3).

   With a² = Var A + Var B − 2ρ·σA·σB and α = (μA − μB) / a:

     E[max]   = μA·Φ(α) + μB·Φ(−α) + a·φ(α)
     E[max²]  = (μA²+σA²)·Φ(α) + (μB²+σB²)·Φ(−α) + (μA+μB)·a·φ(α)
     Var[max] = E[max²] − E[max]²

   The fast variant applies the paper's cutoff (equations (5)/(6)): when
   |α| ≥ 2.6 the saturated quadratic erf makes Φ(α) ∈ {0, 1} and φ(α) ≈ 0,
   so the max collapses to the dominant operand with no arithmetic. *)

type moments = { mean : float; var : float }

let moments ~mean ~var =
  if var < 0.0 then invalid_arg "Clark.moments: negative variance";
  { mean; var }

let sigma m = Float.sqrt m.var

let sum a b = { mean = a.mean +. b.mean; var = a.var +. b.var }

let shift a d = { a with mean = a.mean +. d }

(* How the fast max was resolved; the experiment in §4.3 reports how often
   each branch fires. *)
type resolution = Left_dominates | Right_dominates | Blended

(* statobs counters: short-circuit resolutions (rules 5/6) vs full blended
   evaluations, plus exact-max calls — together they measure how much
   arithmetic the paper's cutoff actually saves on a given workload. *)
let c_max_exact = Obs.Counters.make "clark.max_exact.calls"
let c_cutoff = Obs.Counters.make "clark.max_fast.cutoff"
let c_blended = Obs.Counters.make "clark.max_fast.blended"

let spread ?(rho = 0.0) a b =
  (* the rho = 0 hot path skips the two sigma square roots: the correlation
     term is then [0.0 *. sigma a *. sigma b] = +0.0 (sigmas are finite and
     non-negative), and [v -. 0.0] is bitwise [v], so both branches produce
     the identical float *)
  let v =
    if rho = 0.0 then a.var +. b.var
    else a.var +. b.var -. (2.0 *. rho *. sigma a *. sigma b)
  in
  Float.sqrt (Float.max v 0.0)

let max_exact ?(rho = 0.0) a b =
  Obs.Counters.bump c_max_exact;
  let sp = spread ~rho a b in
  if sp <= 0.0 then
    (* Identical (or perfectly correlated equal-sigma) operands: the max is
       whichever has the larger mean. *)
    if a.mean >= b.mean then a else b
  else
    let alpha = (a.mean -. b.mean) /. sp in
    let phi = Normal.pdf alpha in
    let cdf_pos = Normal.cdf alpha in
    let cdf_neg = 1.0 -. cdf_pos in
    let m1 = (a.mean *. cdf_pos) +. (b.mean *. cdf_neg) +. (sp *. phi) in
    let m2 =
      (((a.mean *. a.mean) +. a.var) *. cdf_pos)
      +. (((b.mean *. b.mean) +. b.var) *. cdf_neg)
      +. ((a.mean +. b.mean) *. sp *. phi)
    in
    { mean = m1; var = Float.max (m2 -. (m1 *. m1)) 0.0 }

let cutoff = Erf.phi_saturation_point

let max_fast_resolved a b =
  let sp = spread a b in
  if sp <= 0.0 then begin
    Obs.Counters.bump c_cutoff;
    if a.mean >= b.mean then (a, Left_dominates) else (b, Right_dominates)
  end
  else
    let alpha = (a.mean -. b.mean) /. sp in
    if alpha >= cutoff then begin
      Obs.Counters.bump c_cutoff;
      (a, Left_dominates)
    end
    else if alpha <= -.cutoff then begin
      Obs.Counters.bump c_cutoff;
      (b, Right_dominates)
    end
    else begin
      Obs.Counters.bump c_blended;
      let phi = Normal.pdf alpha in
      let cdf_pos = Normal.cdf_fast alpha in
      let cdf_neg = 1.0 -. cdf_pos in
      let m1 = (a.mean *. cdf_pos) +. (b.mean *. cdf_neg) +. (sp *. phi) in
      let m2 =
        (((a.mean *. a.mean) +. a.var) *. cdf_pos)
        +. (((b.mean *. b.mean) +. b.var) *. cdf_neg)
        +. ((a.mean +. b.mean) *. sp *. phi)
      in
      ({ mean = m1; var = Float.max (m2 -. (m1 *. m1)) 0.0 }, Blended)
    end

let max_fast a b = fst (max_fast_resolved a b)

(* The max over an empty operand set has no distribution (a fold over
   nothing would have to invent a neutral element, and -inf is not a normal
   random variable), so both list forms reject it loudly instead of leaking
   a bogus value into an arrival-time propagation. *)
let max_exact_list = function
  | [] ->
      invalid_arg
        "Clark.max_exact_list: empty operand list (the max of zero random \
         variables is undefined; callers must supply at least one arrival)"
  | m :: rest -> List.fold_left (fun acc x -> max_exact acc x) m rest

let max_fast_list = function
  | [] ->
      invalid_arg
        "Clark.max_fast_list: empty operand list (the max of zero random \
         variables is undefined; callers must supply at least one arrival)"
  | m :: rest -> List.fold_left (fun acc x -> max_fast acc x) m rest
