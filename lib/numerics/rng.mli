(** Deterministic splittable PRNG (splitmix64) for reproducible experiments
    and Monte-Carlo runs. *)

type t

val create : seed:int -> t

val split : t -> t
(** Derive an independent child stream (advances the parent once). *)

val float : t -> float
(** Uniform in [0, 1). *)

val float_range : t -> lo:float -> hi:float -> float

val int : t -> bound:int -> int
(** Uniform in [0, bound); raises on non-positive bound. *)

val bool : t -> bool

val gaussian : t -> float
(** Standard normal draw (Box–Muller, cosine branch): one nonzero uniform
    [u1] (zeros are redrawn), then one uniform [u2]. *)

val fill_gaussian : t -> float array -> pos:int -> len:int -> unit
(** [fill_gaussian t a ~pos ~len] writes [len] successive {!gaussian} draws
    into [a.(pos)] .. [a.(pos + len - 1)]. It equals [len] calls of
    {!gaussian} bit for bit, and leaves [t] in the state those calls would
    leave it in, so any mix of the two draws one stream. Allocates nothing
    per draw. Raises [Invalid_argument] unless [0 <= pos], [0 <= len] and
    [pos + len <= Array.length a]. *)

val gaussian_scaled : t -> mean:float -> sigma:float -> float

val shuffle_in_place : t -> 'a array -> unit
