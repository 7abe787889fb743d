(* no HOT004: the float helper is [@inline] and every caller is in this
   module, where the request takes effect, so no call boxes its result *)
let[@inline] scale x = (x *. 2.0) +. 1.0

let run x = scale x
