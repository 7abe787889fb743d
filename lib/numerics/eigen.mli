(** Symmetric eigendecomposition (cyclic Jacobi) for the small covariance
    matrices of the PCA-correlated SSTA extension. *)

type t = {
  values : float array;  (** eigenvalues, descending *)
  vectors : float array array;  (** vectors.(k) = unit eigenvector k *)
}

(* statflow: safe — the eigensolver behind PCA; eigen tests call it *)
val decompose : ?max_sweeps:int -> ?tolerance:float -> float array array -> t
(** Raises [Invalid_argument] on non-square or non-symmetric input. *)

val principal_components : ?keep:int -> float array array -> float array array
(** Rows are principal-component loadings: row k = √λₖ · vₖ, so
    Σₖ loadings(k)(i) · loadings(k)(j) ≈ covariance(i)(j). *)
