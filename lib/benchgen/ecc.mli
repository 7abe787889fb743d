(** Hamming single-error-correcting circuits — the c499/c1355 family. *)

type xor_style =
  | Native  (** library XOR2 cells (c499-like) *)
  | Nand4  (** each XOR as four NAND2s (c1355-like) *)

(* statflow: safe — the Hamming code's size rule, pinned by the ecc tests *)
val check_bit_count : data_bits:int -> int

val hamming_corrector :
  ?name:string ->
  ?style:xor_style ->
  lib:Cells.Library.t ->
  data_bits:int ->
  unit ->
  Netlist.Circuit.t
(** Inputs: data [d*] and received check bits [c*]; outputs corrected data
    [o*]. Any single-bit data error is corrected. *)

(* statflow: safe — the corrector's round-trip tests encode with it *)
val hamming_encoder :
  ?name:string ->
  ?style:xor_style ->
  lib:Cells.Library.t ->
  data_bits:int ->
  unit ->
  Netlist.Circuit.t
(** Pure parity-tree workload: data in, check bits [c*] out. *)
