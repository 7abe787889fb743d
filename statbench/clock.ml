(* Every benchmark timer reads this monotonic clock (CLOCK_MONOTONIC via
   bechamel), so wall-clock steps never leak into a measurement. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
