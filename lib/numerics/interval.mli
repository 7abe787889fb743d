(** Closed floating-point intervals with outward-rounded arithmetic — the
    base abstract domain of the statcheck certifier ([lib/absint]). Every
    derived operation widens its endpoints by one ulp per primitive float
    operation, so a computed interval always contains the real-arithmetic
    result of the operation on any members of its operands. *)

type t = { lo : float; hi : float }

val v : float -> float -> t
(** [v lo hi]; raises [Invalid_argument] unless [lo <= hi] (rejects NaN). *)

val point : float -> t
(** Degenerate interval [x, x]. *)

val lo : t -> float
val hi : t -> float
val width : t -> float
val mid : t -> float

val contains : ?tol:float -> t -> float -> bool
(** Membership with an absolute slack [tol] (default 0) on both sides. *)

val add : t -> t -> t
(** Outward-rounded [a + b]. *)

val neg : t -> t
val sub : t -> t -> t

val scale : float -> t -> t
(** Outward-rounded multiplication by a scalar (any sign). *)

val max2 : t -> t -> t
(** Interval of max(x, y): [max lo, max hi] — exact (max never rounds). *)

val join : t -> t -> t
(** Convex hull of the union. *)

val meet : t -> t -> t option
(** Intersection; [None] when disjoint. *)

val inflate : float -> t -> t
(** Widen both endpoints outward by an absolute margin (≥ 0). *)

val inflate_rel : float -> t -> t
(** Widen both endpoints outward by [eps · (1 + |endpoint|)] — absorbs
    epsilon-level float drift (e.g. pdf renormalization) soundly. *)

val pp : t Fmt.t
