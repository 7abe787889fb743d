(** Logic functions implementable by standard cells, with boolean evaluation
    and the logical-effort-style parameters that seed the generated library. *)

type t =
  | Inv
  | Buf
  | Nand of int
  | Nor of int
  | And of int
  | Or of int
  | Xor2
  | Xnor2
  | Aoi21  (** !(a·b + c) *)
  | Oai21  (** !((a+b)·c) *)
  | Mux2  (** s ? b : a — inputs ordered a, b, s *)

val all_shapes : t list
(** Every function the default library provides (arities 2–4 for the
    n-ary gates). *)

val index_count : int

val index : t -> int
(** The function's position in {!all_shapes}, in [\[0, index_count)], for a
    valid function; [-1] for an n-ary gate outside arities 2–4. *)

val valid : t -> bool
val arity : t -> int
val name : t -> string

val of_name : string -> t option
(** Parses both library names ([NAND3]) and ISCAS [.bench] aliases
    ([NOT], [BUFF], [XOR], …). *)

val eval : t -> bool array -> bool
(** Boolean evaluation; raises [Invalid_argument] on arity mismatch. *)

(* statflow: safe — a cell-function property the cell tests pin *)
val inverting : t -> bool

val effort : t -> float
(** Logical effort (load-sensitivity scale, τ units). *)

val parasitic : t -> float
(** Intrinsic parasitic delay (τ units). *)

val base_area : t -> float
(** Minimum-size area in minimum-inverter units. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t
