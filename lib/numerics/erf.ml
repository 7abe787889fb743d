(* Error function: a high-accuracy reference implementation and the paper's
   fast quadratic approximation (CRC Concise Encyclopedia of Mathematics,
   cited as [23]).

   The CRC quadratic approximates the standard-normal CDF, accurate to two
   decimal places on erf (about 0.005 on Φ):

     Φ(x) - 1/2 = 0.1·x·(4.4 - x)   for 0 <= x <= 2.2
                = 0.49              for 2.2 < x <= 2.6
                = 0.50              for x > 2.6

   (the paper prints it in erf form; Φ(x) = (1 + erf(x/√2))/2). Saturation
   at 2.6 — in sigma units — is exactly the cutoff FASSTA's conditions
   (5)/(6) exploit. erf is recovered as erf(x) = 2·Φ(x·√2) − 1. *)

let phi_saturation_point = 2.6

(* Φ(x) − 1/2 for x ≥ 0, per the CRC quadratic. *)
let phi_excess_magnitude x =
  if x <= 2.2 then 0.1 *. x *. (4.4 -. x)
  else if x <= phi_saturation_point then 0.49
  else 0.5

let phi_quadratic x =
  if x >= 0.0 then 0.5 +. phi_excess_magnitude x
  else 0.5 -. phi_excess_magnitude (-.x)

let sqrt_two = Float.sqrt 2.0

let quadratic x = (2.0 *. phi_quadratic (x *. sqrt_two)) -. 1.0

(* Abramowitz & Stegun 7.1.26, |error| <= 1.5e-7: the "exact" reference used
   everywhere outside the FASSTA hot path. *)
let exact x =
  let ax = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. ax)) in
  let poly =
    t
    *. (0.254829592
       +. (t
          *. (-0.284496736
             +. (t *. (1.421413741 +. (t *. (-1.453152027 +. (t *. 1.061405429))))))))
  in
  let v = 1.0 -. (poly *. Float.exp (-.(ax *. ax))) in
  if x >= 0.0 then v else -.v

let erfc x = 1.0 -. exact x

(* Maximum absolute deviation of the quadratic approximation from the
   reference, over a uniform grid on [-bound, bound]. Used by tests and the
   approximation study to confirm the paper's "two decimal places" claim. *)
let max_quadratic_error ?(bound = 4.0) ?(samples = 4001) () =
  assert (samples > 1);
  let step = 2.0 *. bound /. float_of_int (samples - 1) in
  let rec loop i worst =
    if i >= samples then worst
    else
      let x = -.bound +. (float_of_int i *. step) in
      let err = Float.abs (quadratic x -. exact x) in
      loop (i + 1) (Float.max worst err)
  in
  loop 0 0.0
