(** Dense square matrices and the direct factorizations used for the
    internal (node-local) solves of the congested-clique algorithms.

    Matrices are row-major [float array array]. The factorizations are
    cubic-time. The solver applies them to the grounded Laplacian of the
    *sparsifier* H ([O(n log n)] edges on [n] vertices): in the congested
    clique every node holds the whole sparsifier and solves internally, at
    zero rounds (Theorem 1.1's proof), which is what these functions model.
    Reference and certification paths also apply them to the input graph
    G itself: [Flow.Electrical]'s exact backend and
    [Laplacian.Solver.error_in_l_norm], through {!solve_grounded}. *)

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
    alias [x] or a row of [a]. This is the [apply_into] operator shape
    that {!Cg.solve_into} and {!Chebyshev.solve_into} consume. *)

val add : t -> t -> t

val is_symmetric : t -> bool
(** Mirrored entries agree to within 1e-9. *)

type factor
(** A Cholesky factor [L], lower triangular, stored packed: [L]'s rows
    left of the diagonal, [Lᵀ]'s rows right of it, and the diagonal, each
    in one flat array ([n(n−1) + n] floats). Only {!cholesky} builds one. *)

val cholesky : ?shift:float -> t -> factor
(** [cholesky a] returns the factor [L] with [L Lᵀ = a + shift·I]. [a]
    must be symmetric positive definite (after the shift); only its lower
    triangle is read. Raises [Failure] if a non-positive pivot is met.
    Every entry sums the same terms in the same order as the textbook
    row-by-row loop, so the bits match it. *)

val lower : factor -> t
(** [lower f] is [L] as a square matrix, zero above the diagonal. *)

val forward_into : factor -> Vec.t -> Vec.t -> unit
(** [forward_into l b y] solves [L y = b] into [y] without allocating.
    [b] and [y] must be distinct buffers of dimension [n]. *)

val backward_into : factor -> Vec.t -> Vec.t -> unit
(** [backward_into l y x] solves [Lᵀ x = y] into [x] without allocating.
    [y] and [x] must be distinct buffers of dimension [n]. *)

val cholesky_solve : factor -> Vec.t -> Vec.t
(** [cholesky_solve l b] solves [L Lᵀ x = b] by forward/back substitution. *)

val cholesky_solve_into : factor -> Vec.t -> Vec.t -> Vec.t -> unit
(** [cholesky_solve_into l b scratch x] solves [L Lᵀ x = b] without
    allocating: {!forward_into} into [scratch], then {!backward_into} into
    [x]. [b], [scratch] and [x] must be pairwise distinct buffers of
    dimension [n]. Bit-identical to {!cholesky_solve}. *)

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
