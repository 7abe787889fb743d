(* an [@inline] float helper that another module (hot004_opaque.ml) calls;
   no entry of its own *)
let[@inline] blend x w = (x *. w) +. (1.0 -. w)
