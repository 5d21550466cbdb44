(** Deterministic approximate Fiedler vectors.

    Substitute for the spectral engine inside the Chang–Saranurak expander
    decomposition (DESIGN.md, substitution 2). Forward power iteration on
    [M = 2I − N], where [N = D^{-1/2} L D^{-1/2}] is the normalized
    Laplacian, deflated against its kernel direction [D^{1/2} 1], from a
    fixed starting vector — no randomness, so the whole decomposition
    stays deterministic as the paper requires. It runs a fixed number of
    steps (400 by default) with no convergence test. The step loop runs
    over flat edge arrays and two preallocated vectors and allocates
    nothing. *)

val approx : ?iters:int -> Graph.t -> float * Linalg.Vec.t
(** [approx g] returns [(λ₂ estimate, x)] where [x] approximates the Fiedler
    vector of the *normalized* Laplacian, already rescaled by [D^{-1/2}] so
    that {!Conductance.sweep_cut} can consume it directly. [λ₂ ∈ [0, 2]].
    Requires [Graph.n g ≥ 2]. *)

val lambda2_exact : Graph.t -> float
(** Exact [λ₂] of the normalized Laplacian via dense eigendecomposition
    (Jacobi iteration); [O(n³)] — a test oracle for {!approx}. *)
