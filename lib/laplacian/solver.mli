(** Deterministic congested-clique Laplacian solver — Theorem 1.1.

    Pipeline, exactly as §3 implements it:
    + round edge weights to multiples of [ε] and rescale (the theorem takes
      integer weight classes);
    + build a deterministic spectral sparsifier [H] ({!Sparsify.Spectral});
      after this phase [H] is known to every node;
    + estimate the pencil condition number [κ] with distributed power
      iteration — each iteration is one [L_G]-matvec round, the [L_H†]
      applications are node-internal;
    + run preconditioned Chebyshev (Corollary 2.3): [O(√κ·log(1/ε))]
      iterations of one matvec round plus an internal [L_H]-solve.

    The first three phases do not depend on the right-hand side. They build
    a {!prepared} handle, and {!solve_prepared} runs the last phase on it;
    {!solve} is exactly that composition, on a fresh handle. There is no
    other implementation of the pipeline.

    Round accounting: the sparsifier phase charges its Theorem 3.3 cost, and
    every matvec charges {!Runtime.Cost.matvec_rounds}. No phase moves a
    message, so all charges flow into one plain {!Runtime.Cost.t} ledger per
    solve and are broken down per phase in the report. *)

type inner_solver =
  | Direct  (** grounded dense Cholesky of [L_H] — exact, [O(n³)] once *)
  | Iterative  (** tightly-converged CG on [L_H] — for larger [n] *)

type report = {
  x : Linalg.Vec.t;  (** the approximate solution *)
  iterations : int;  (** Chebyshev iterations used *)
  kappa : float;  (** pencil condition estimate actually used *)
  sparsifier_edges : int;
  rounds : int;  (** total charged rounds *)
  phase_rounds : (string * int) list;
      (** ledger breakdown (sorted): "chebyshev", "kappa-estimate",
          "sparsify" *)
  residual : float;  (** final relative ℓ₂ residual ‖b − L_G x‖/‖b‖ *)
}

(** {2 Prepared handles}

    {!prepare} performs the per-graph work once — weight preprocessing,
    sparsifier construction, the inner Cholesky/CG state, κ-estimation,
    and the Chebyshev workspace. {!solve_prepared} then answers any number
    of right-hand sides, performing zero heap allocations per Chebyshev
    iteration with the [Direct] inner solver ([Iterative] allocates O(1)
    words per outer iteration for the nested CG call). A handle holds
    mutable workspaces: concurrent {!solve_prepared} calls on the same
    handle are unsound — callers serialize (the daemon guards each cached
    handle with a mutex). *)

type prepared

val prepare :
  ?eps:float ->
  ?inner:inner_solver ->
  ?model:Runtime.Model.t ->
  Graph.t ->
  prepared
(** [prepare g] runs every phase that does not depend on the right-hand
    side. [eps] (default [1e-6]) is the target of Theorem 1.1:
    [‖x − L†b‖_{L_G} ≤ ε‖L†b‖_{L_G}]. [inner] defaults to [Direct] for
    [n ≤ 400], [Iterative] above. [model] (default
    {!Runtime.Model.default}) selects unicast vs broadcast round
    accounting for the sparsifier phase; the matvec-driven phases
    (κ-estimation, Chebyshev) cost the same in both models, and the
    solution is bit-identical. Raises [Invalid_argument] on a disconnected
    graph. *)

val solve_prepared : prepared -> Linalg.Vec.t -> report
(** [solve_prepared p b] approximately solves [L_G x = b] for [b ⊥ 1] ([b]
    is centered defensively). The report's [rounds] and [phase_rounds]
    replay the whole pipeline's ledger — the sparsifier and κ-estimation
    charges are repeated on every call — so an answer from a reused handle
    is indistinguishable from a cold one. Raises [Invalid_argument] naming
    both sizes if [b]'s dimension is not the graph's node count. *)

val solve :
  ?eps:float ->
  ?inner:inner_solver ->
  ?model:Runtime.Model.t ->
  Graph.t ->
  Linalg.Vec.t ->
  report
(** [solve g b] is [solve_prepared (prepare g) b], with the same optional
    arguments passed to {!prepare}. *)

val solve_with_sparsifier :
  ?eps:float ->
  Graph.t ->
  Sparsify.Spectral.result ->
  Linalg.Vec.t ->
  report
(** Reuse a previously built sparsifier (the flow IPMs re-solve on graphs
    whose resistances change every iteration but whose support is fixed;
    when the caller knows the sparsifier is still valid it can skip phase
    1). Builds the same handle as {!prepare} around the given sparsifier,
    with [prepare]'s default inner solver, and solves once. The sparsifier
    construction is {e not} charged: the report has no ["sparsify"] phase.
    Raises [Invalid_argument] on a disconnected graph. *)

(** {2 Conjugate-gradient baseline} *)

type prepared_cg

val prepare_cg : ?eps:float -> Graph.t -> prepared_cg
(** One CG workspace per graph, reused across right-hand sides. Raises
    [Invalid_argument] on a disconnected graph. *)

val solve_cg_prepared : prepared_cg -> Linalg.Vec.t -> report
(** Plain distributed conjugate gradients (each iteration = one matvec
    round, no sparsifier), with zero heap allocations per CG iteration.
    Reports rounds the same way as {!solve_prepared} so the two are
    directly comparable. Same dimension check and single-handle
    concurrency caveat as {!solve_prepared}. *)

val solve_cg_baseline : ?eps:float -> Graph.t -> Linalg.Vec.t -> report
(** Baseline for experiment E8: [solve_cg_prepared (prepare_cg g) b]. *)

val error_in_l_norm : Graph.t -> Linalg.Vec.t -> Linalg.Vec.t -> float
(** [error_in_l_norm g x b]: the Theorem 1.1 error metric
    [‖x − L†b‖_L / ‖L†b‖_L], computed against a dense-oracle [L†b] —
    test/bench instrumentation, not part of the distributed algorithm. *)
