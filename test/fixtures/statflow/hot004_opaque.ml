(* planted HOT004 (Info) on Hot004_kernel.blend: its [@inline] does not
   reach this caller, because dune's dev profile compiles every module with
   -opaque and no call across a module boundary is inlined *)
let run x = Hot004_kernel.blend x 0.5
