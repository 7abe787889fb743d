(* Statistical rule pack.

   Mishagli et al. (arXiv:2401.03588) and Bosák et al. (arXiv:2211.02981)
   both stress that SSTA approximations hold only under explicit
   distributional preconditions. These rules machine-check the ones this
   repo's engines rely on: normalized discrete pdfs, non-negative second
   moments, a variation model whose sigma/mu stays in the regime where the
   normal approximation is honest, and Clark's a > 0. *)

let check_model (m : Variation.Model.t) =
  let loc = Diag.Model in
  let negative =
    (if m.Variation.Model.systematic < 0.0 then
       [
         Diag.errorf ~code:"STAT002" ~loc
           "negative systematic sigma coefficient %.3g" m.Variation.Model.systematic;
       ]
     else [])
    @ (if m.Variation.Model.random_floor < 0.0 then
         [
           Diag.errorf ~code:"STAT002" ~loc "negative random sigma floor %.3g"
             m.Variation.Model.random_floor;
         ]
       else [])
    @
    if m.Variation.Model.tau_ref <= 0.0 then
      [
        Diag.errorf ~code:"STAT002" ~loc "non-positive reference tau %.3g"
          m.Variation.Model.tau_ref;
      ]
    else []
  in
  if negative <> [] then negative
  else begin
    (* Representative operating point: a mid-ladder drive (strength 4 of the
       library's 1..8) at a delay of a few tau. Per-arc sigma/mu at minimum
       size is intentionally high (that is the sizing lever); the sanity
       range applies to a typically-sized gate. *)
    let delay = 4.0 *. m.Variation.Model.tau_ref in
    let strength = 4.0 in
    let sigma = Variation.Model.sigma m ~delay ~strength in
    let ratio = sigma /. delay in
    if sigma = 0.0 then
      [
        Diag.errorf ~code:"STAT004" ~loc
          ~hint:"give at least one of k_sys/k_rand a positive value"
          "model sigma is identically zero: Clark's max needs a = sqrt(varA \
           + varB - 2cov) > 0";
      ]
    else if ratio > 0.5 then
      [
        Diag.warningf ~code:"STAT003" ~loc
          ~hint:"the normal approximation (and Clark's formulas) degrade \
                 badly past sigma/mu = 0.5"
          "sigma/mu = %.2f at a mid-ladder drive (strength %.0f, delay %.1f \
           ps) is outside the sane range (0, 0.5]"
          ratio strength delay;
      ]
    else []
  end

let check_points ?(tol = 1e-6) points =
  let negative =
    List.mapi (fun index (value, mass) -> (index, value, mass)) points
    |> List.filter_map (fun (index, value, mass) ->
           if mass < 0.0 then
             Some
               (Diag.errorf ~code:"STAT002"
                  ~loc:(Diag.Pdf_point { index; value })
                  "pdf point %d has negative mass %.3g" index mass)
           else None)
  in
  let total = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 points in
  let mass =
    if Float.abs (total -. 1.0) > tol then
      [
        Diag.errorf ~code:"STAT001" ~loc:Diag.Pdf
          ~hint:"renormalize before feeding the pdf to FULLSSTA"
          "pdf mass sums to %.9g (deviation %.3g beyond tolerance %g)" total
          (Float.abs (total -. 1.0))
          tol;
      ]
    else []
  in
  negative @ mass
