(** Boolean simulation of mapped circuits — the functional oracle for the
    benchmark generators. *)

type assignment = (string * bool) list

val run : Circuit.t -> inputs:assignment -> (string * bool) list
(** Evaluate with every primary input named exactly once; returns all primary
    outputs with their names. Raises [Invalid_argument] on missing, unknown,
    or non-input names. *)

val run_vector : Circuit.t -> bits:bool array -> bool array
(** Positional form: bits follow the order of [Circuit.inputs]/[outputs]. *)

(* statflow: safe — decodes output buses in the generator tests *)
val read_unsigned : (string * bool) list -> prefix:string -> int
(** Decode outputs named [prefix0], [prefix1], … as a little-endian unsigned
    integer. *)
