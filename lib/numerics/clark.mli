(** Clark's moment formulas for the max of normal random variables — the
    paper's equations (1)–(3) — in an exact form and the FASSTA fast form
    with the 2.6-cutoff short circuit (equations (5)/(6)). *)

type moments = { mean : float; var : float }

val moments : mean:float -> var:float -> moments
(** Smart constructor; raises on negative variance. *)

val sigma : moments -> float
(** Standard deviation. *)

val sum : moments -> moments -> moments
(** Moments of A + B assuming independence. *)

(* statflow: safe — moment algebra the numerics tests pin *)
val shift : moments -> float -> moments
(** Add a deterministic offset to the mean. *)

type resolution = Left_dominates | Right_dominates | Blended

val cutoff : float
(** The paper's 2.6 threshold on (μA − μB)/a — the argument at which the
    quadratic Φ saturates. *)

val spread : ?rho:float -> moments -> moments -> float
(** [spread a b] is the a-term: sqrt(σA² + σB² − 2ρσAσB). *)

val max_exact : ?rho:float -> moments -> moments -> moments
(** Clark's moments with the reference erf. *)

val max_fast : moments -> moments -> moments
(** FASSTA max: cutoff short-circuit, else Clark with quadratic erf. *)

val max_fast_resolved : moments -> moments -> moments * resolution
(** Like {!max_fast} but also reports which branch resolved the max. *)

val max_exact_list : moments list -> moments
(** Left fold of {!max_exact}. Raises [Invalid_argument] with a descriptive
    message on the empty list — the max of zero random variables has no
    distribution, so there is no sound neutral element to return. *)

val max_fast_list : moments list -> moments
(** Left fold of {!max_fast}; raises [Invalid_argument] on the empty list
    (same contract as {!max_exact_list}). *)
