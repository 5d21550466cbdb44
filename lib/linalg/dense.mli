(** Dense square matrices and the direct factorizations used for the
    internal (node-local) solves of the congested-clique algorithms.

    Matrices are row-major [float array array]. These routines are only ever
    applied to the *sparsified* graphs (size [O(n log n)] edges on [n]
    vertices), so cubic-time factorizations are acceptable: in the congested
    clique every node holds the whole sparsifier and solves internally
    (Theorem 1.1's proof), which is exactly what these functions model. *)

type t = float array array

val create : int -> t
(** [create n] is the [n × n] zero matrix. *)

val init : int -> (int -> int -> float) -> t

val dim : t -> int

val identity : int -> t

val transpose : t -> t

val mul : t -> t -> t

val mul_vec : t -> Vec.t -> Vec.t

val mul_vec_into : t -> Vec.t -> Vec.t -> unit
(** [mul_vec_into a x y] sets [y <- A x] without allocating; [y] must not
    alias [x] or a row of [a]. Same [apply_into] operator shape as
    {!Csr.mul_vec_into}. *)

val add : t -> t -> t

val is_symmetric : t -> bool
(** Mirrored entries agree to within 1e-9. *)

val cholesky : ?shift:float -> t -> t
(** [cholesky a] returns the lower-triangular [l] with [l * lᵀ = a + shift·I].
    [a] must be symmetric positive definite (after the shift).
    Raises [Failure] if a non-positive pivot is met. *)

val cholesky_solve : t -> Vec.t -> Vec.t
(** [cholesky_solve l b] solves [l lᵀ x = b] by forward/back substitution. *)

val cholesky_solve_into : t -> Vec.t -> Vec.t -> Vec.t -> unit
(** [cholesky_solve_into l b scratch x] solves [l lᵀ x = b] without
    allocating: the forward-substitution intermediate lives in [scratch] and
    the solution in [x]. [b], [scratch] and [x] must be pairwise distinct
    buffers of dimension [dim l]. Bit-identical to {!cholesky_solve}. *)

val solve_spd : ?shift:float -> t -> Vec.t -> Vec.t
(** One-shot symmetric-positive-definite solve via Cholesky. *)

val inverse_spd : t -> t
(** Inverse of an SPD matrix via Cholesky solves, column by column. *)

val solve_grounded : t -> Vec.t -> Vec.t
(** [solve_grounded l b] solves a *singular* Laplacian system [l x = b] with
    [b ⊥ 1] by grounding vertex 0 (deleting its row/column), solving the
    resulting SPD system, and re-centering the solution so that [x ⊥ 1].
    This computes [L† b] exactly for a connected Laplacian. *)

val power_iteration : ?iters:int -> (Vec.t -> Vec.t) -> int -> float * Vec.t
(** [power_iteration apply n] runs deterministic power iteration on the
    operator [apply] over dimension [n], started from a fixed deterministic
    vector, for at most [iters] (default 200) steps or until the Rayleigh
    quotient moves by at most 1e-10 relative. Returns
    [(rayleigh_quotient, unit eigvec estimate)]. *)

val eig_bounds_spd : t -> float * float
(** [eig_bounds_spd a] returns [(lo, hi)]: a lower bound on the smallest and
    an upper bound on the largest eigenvalue of SPD [a]
    (Gershgorin for [hi]; inverse power iteration for [lo]). *)
