(** Standard-cell libraries and the generated 90nm-like default (every
    function at eight drive strengths with LUT delay/slew models). *)

type t

val name : t -> string

val tau : t -> float
(** Technology time constant (ps) the LUTs were seeded from. *)

val strengths : t -> float array
(** The drive-strength ladder, ascending. *)

val functions : t -> Fn.t list
val cell_count : t -> int

val iter_cells : t -> f:(Cell.t -> unit) -> unit
(** Every cell, grouped by function, ascending drive within a group. *)

val cells : t -> Cell.t list

val sizes_of_fn : t -> Fn.t -> Cell.t array
(** All drive variants of a function, ascending by strength, in O(1);
    raises [Invalid_argument] when the function is not in the library. The
    array is the library's own: do not mutate it. *)

val mem_fn : t -> Fn.t -> bool
val find : t -> name:string -> Cell.t option
val cell_exn : t -> fn:Fn.t -> drive_index:int -> Cell.t
(* statflow: safe — twin of max_cell; tests build fixtures from it *)
val min_cell : t -> fn:Fn.t -> Cell.t
val max_cell : t -> fn:Fn.t -> Cell.t
(* statflow: safe — twin of next_down; tests walk the ladder up *)
val next_up : t -> Cell.t -> Cell.t option
val next_down : t -> Cell.t -> Cell.t option

val of_cells : name:string -> tau:float -> strengths:float array -> Cell.t list -> t
(** Assemble a library from explicit cells (used by the liberty reader);
    raises on duplicate cell names and on a cell whose function is not
    {!Fn.valid}. *)

val generate :
  ?name:string ->
  ?tau:float ->
  ?strengths:float array ->
  ?slew_axis:float array ->
  ?load_axis:float array ->
  ?shapes:Fn.t list ->
  unit ->
  t
(** Procedurally generate a library (see module doc). *)

val default : t lazy_t
(** The library every experiment uses unless told otherwise. *)

(* statflow: safe — the drive ladder test_regressions pins the library to *)
val default_strengths : float array

val pp : t Fmt.t
