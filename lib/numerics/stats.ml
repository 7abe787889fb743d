(* Streaming sample statistics (Welford) plus small descriptive helpers used
   by the Monte-Carlo engine and the experiment reports. *)

type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
}

let create () = { count = 0; mean = 0.0; m2 = 0.0 }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let count t = t.count
let mean t = if t.count = 0 then Float.nan else t.mean

let variance t =
  if t.count < 2 then 0.0 else Float.max (t.m2 /. float_of_int (t.count - 1)) 0.0

let std t = Float.sqrt (variance t)

(* Coefficient of variation σ/μ: the paper's Table-1 headline metric. *)
let sigma_over_mean t =
  let m = mean t in
  if Float.abs m <= 0.0 then Float.nan else std t /. m

let percentile_of_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile_of_sorted: empty";
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Stats.percentile_of_sorted: p";
  let rank = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = Stdlib.min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  ((1.0 -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let percentile values p =
  let sorted = Array.of_list values in
  Array.sort Float.compare sorted;
  percentile_of_sorted sorted p
