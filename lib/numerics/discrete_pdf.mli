(** Discrete probability distributions — the FULLSSTA pdf representation
    (Liou et al., DAC'01): finitely many (value, mass) points with [sum] by
    cross sums re-binned to a point budget, [max] by CDF products, and
    re-sampling to a point budget. *)

type t

(* statflow: safe — pdf constructor the oracle tests hold bit for bit *)
val of_points : (float * float) list -> t
(** Build from (value, mass) pairs; sorts, merges duplicates, renormalizes.
    Raises [Invalid_argument] when total mass is zero. *)

val constant : float -> t
(** Point mass. *)

val of_normal :
  ?span:float -> samples:int -> mean:float -> sigma:float -> unit -> t
(** Discretize a normal over mean ± span·sigma (default span 4.0) into
    [samples] equal-width bins with CDF-difference masses. *)

(* statflow: safe — pdf constructor the numerics tests pin *)
val of_samples : samples:int -> float list -> t
(** Empirical distribution of raw draws, re-binned to [samples] points. *)

val equal : t -> t -> bool
(** Bit-level equality of supports and masses (no tolerance) — the exact
    "nothing changed" test used by incremental propagation. *)

val points : t -> (float * float) list
(* statflow: safe — pdf size the numerics and regression tests bound *)
val support_size : t -> int

val mean : t -> float
val variance : t -> float
val std : t -> float
val to_moments : t -> Clark.moments

val cdf : t -> float -> float
(** Mass at or below the argument (right-continuous step CDF). *)

val quantile : t -> float -> float
(** Smallest support point whose cumulative mass reaches the argument. *)

(* statflow: safe — pdf algebra the numerics tests pin *)
val shift : t -> float -> t
val scale : t -> float -> t

val sum : samples:int -> t -> t -> t
(** [sum ~samples a b] is the distribution of the sum of independent
    variables, re-binned to [samples] bins: bit for bit what {!resample}
    [~samples] returns on the unresampled cross-sum distribution (whose
    support would grow to the product of the sizes), which this kernel
    never builds. It counts one [pdf.sum] call of
    [support_size a * support_size b] points and one [pdf.resample] call,
    and raises [Invalid_argument] like {!resample} when [samples < 1]. *)

val max2 : t -> t -> t
(** Distribution of the max of independent variables. *)

val max_list : t list -> t
(** Left fold of {!max2}; raises on the empty list. *)

val resample : t -> samples:int -> t
(** Re-bin onto [samples] equal-width bins spanning the support, each bin's
    mass split over two points at its centroid ± its within-bin standard
    deviation: at most 2·samples points, with the mean and variance kept up
    to rounding. A pdf of at most 2·samples points is returned unchanged.
    Raises [Invalid_argument] when [samples < 1]. *)

(* statflow: safe — the pdf invariant check the numerics tests assert *)
val check_invariants : t -> bool
(** Structural invariants (sorted support, masses ≥ 0 summing to 1). *)

val pp : t Fmt.t
