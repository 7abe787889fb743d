(* Nearest-rank percentiles: the reported value is always one of the
   samples, so a percentile over repeated identical jobs picks a job rather
   than interpolating between two unlike ones. *)

let sorted xs = List.sort Float.compare xs

let percentile p = function
  | [] -> Float.nan
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 1 (min n rank) - 1)

let median xs = percentile 50.0 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio num den = if den = 0.0 then 0.0 else num /. den
