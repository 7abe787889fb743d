(** 2-D lookup tables with bilinear interpolation and edge clamping — the
    NLDM-style timing model of the standard-cell library. *)

type t

val create : rows:float array -> cols:float array -> values:float array array -> t
(** Axes must be strictly increasing; [values.(i).(j)] sits at
    ([rows.(i)], [cols.(j)]). Raises [Invalid_argument] on shape errors. *)

val of_function : rows:float array -> cols:float array -> (float -> float -> float) -> t
(** Tabulate a function on the given grid. *)

val query : t -> row:float -> col:float -> float
(** Bilinear interpolation; queries outside the grid clamp to the edge and
    bump the table's out-of-bounds counter (see {!oob_count}). *)

val range : t -> row:float * float -> col:float * float -> float * float
(** [(min, max)] of the clamped bilinear surface over the query box
    [row × col]. Exact for the piecewise-bilinear surface (extremes are
    attained on box corners and grid-line crossings, all of which are
    evaluated). Unlike {!query}, never bumps the out-of-bounds counter —
    this is the certification entry point for sweeping hypothetical
    operating boxes. Raises [Invalid_argument] on an empty box. *)

val in_range : t -> row:float -> col:float -> bool
(** Whether a query point lies inside the table (no clamping needed). Does
    not touch the out-of-bounds counter. *)

val oob_count : t -> int
(** How many {!query} calls since creation (or {!reset_oob}) were clamped —
    the raw signal behind the lint pack's extrapolation warning. The
    counter is atomic, so totals are exact even when experiment runners
    query a shared library from several domains at once. *)

val reset_oob : t -> unit

val rows : t -> float array
val cols : t -> float array

val values : t -> float array array
(** A deep copy of the table entries (row-major), for validators. *)

val map : t -> f:(float -> float) -> t

val pp : t Fmt.t
