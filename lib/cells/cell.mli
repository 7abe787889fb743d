(** A sized standard cell: one logic function at one drive strength with
    LUT-based delay and output-slew models. Units: ps, fF, µm². *)

type t = {
  name : string;
  fn : Fn.t;
  drive_index : int;
  strength : float;
  area : float;
  input_cap : float;
  delay : Numerics.Lut.t;
  output_slew : Numerics.Lut.t;
}

val name : t -> string
val fn : t -> Fn.t
val arity : t -> int

val drive_index : t -> int
(** Position in the library's strength ladder (0 = minimum size). *)

val strength : t -> float
val area : t -> float
val input_cap : t -> float

val delay : t -> slew:float -> load:float -> float
(** Pin-to-output delay for the given input slew (ps) and load (fF). *)

val slew : t -> slew:float -> load:float -> float
(** Output transition time under the same conditions. *)

val equal : t -> t -> bool
val pp : t Fmt.t
