(** Streaming sample statistics (Welford) and percentile helpers. *)

type t

val create : unit -> t
val add : t -> float -> unit
val of_list : float list -> t

val count : t -> int
val mean : t -> float
val variance : t -> float
(** Unbiased (n−1) sample variance; 0 with fewer than two samples. *)

val std : t -> float

val sigma_over_mean : t -> float
(** Coefficient of variation σ/μ — Table 1's headline metric. *)

val percentile : float list -> float -> float
(** Linear-interpolated percentile, p in [0, 1]. *)
