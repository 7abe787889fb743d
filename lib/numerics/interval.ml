(* Closed float intervals with outward rounding.

   IEEE-754 binary operations round to nearest, so a float result can sit on
   either side of the real result. Directed rounding modes are not reachable
   from OCaml, but nudging each computed endpoint one ulp outward (Float.pred
   on lower bounds, Float.succ on upper bounds) over-approximates any
   rounding error of a single correctly-rounded primitive. Compound
   expressions apply the nudge per primitive, keeping the enclosure sound at
   the cost of a few spare ulps of width. *)

type t = { lo : float; hi : float }

let v lo hi =
  (* the negated comparison also rejects NaN endpoints *)
  if not (lo <= hi) then
    invalid_arg (Printf.sprintf "Interval.v: not a valid interval [%g, %g]" lo hi);
  { lo; hi }

let point x = v x x
let lo t = t.lo
let hi t = t.hi
let width t = t.hi -. t.lo
let mid t = 0.5 *. (t.lo +. t.hi)

let contains ?(tol = 0.0) t x = x >= t.lo -. tol && x <= t.hi +. tol

(* One-ulp outward nudges. Infinite endpoints stay put: Float.pred infinity
   is max_float, which would unsoundly SHRINK an upper bound of +inf (and
   symmetrically for the lower side). *)
let down x = if Float.is_finite x then Float.pred x else x
let up x = if Float.is_finite x then Float.succ x else x

let add a b = { lo = down (a.lo +. b.lo); hi = up (a.hi +. b.hi) }
let neg a = { lo = -.a.hi; hi = -.a.lo }
let sub a b = add a (neg b)

let scale k a =
  if k >= 0.0 then { lo = down (k *. a.lo); hi = up (k *. a.hi) }
  else { lo = down (k *. a.hi); hi = up (k *. a.lo) }

(* max/min of two floats is exact — no rounding step, no nudge. *)
let max2 a b = { lo = Float.max a.lo b.lo; hi = Float.max a.hi b.hi }
let join a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let meet a b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if lo <= hi then Some { lo; hi } else None

let inflate margin t =
  if margin < 0.0 then invalid_arg "Interval.inflate: negative margin";
  { lo = down (t.lo -. margin); hi = up (t.hi +. margin) }

let inflate_rel eps t =
  if eps < 0.0 then invalid_arg "Interval.inflate_rel: negative eps";
  {
    lo = down (t.lo -. (eps *. (1.0 +. Float.abs t.lo)));
    hi = up (t.hi +. (eps *. (1.0 +. Float.abs t.hi)));
  }

let pp ppf t = Fmt.pf ppf "[%g, %g]" t.lo t.hi
