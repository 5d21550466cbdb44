(** Conjugate gradients on symmetric positive semi-definite operators.

    Used in three places: (a) as the *baseline* Laplacian solver that the
    benchmarks compare the paper's preconditioned-Chebyshev solver against
    (experiment E8), (b) as the inner exact-ish solver for moderately
    large sparsifier Laplacians where a dense Cholesky would be wasteful,
    and (c) as the default backend of the flow IPMs' electrical flows.

    The implementation is one zero-allocation workspace kernel
    ({!Workspace}, {!solve_into}); a caller with a singular Laplacian
    centers [b] before the solve and [x] after it. *)

type stats = {
  iterations : int;
  residual : float;
      (** final [‖r‖₂] for the recurrence's residual [r ← r − α A p]:
          [‖b − A x‖₂] in exact arithmetic only *)
  converged : bool;
}

(** Preallocated iteration state. One workspace serves any number of
    sequential solves of the same dimension — the throughput daemon caches
    one per graph fingerprint and reuses it across requests. A workspace
    must not be shared between concurrent solves. *)
module Workspace : sig
  type t = { x : Vec.t; r : Vec.t; p : Vec.t; ap : Vec.t }

  val create : int -> t
  (** [create n] allocates the four iteration vectors for dimension [n]. *)

  val dim : t -> int
end

val solve_into :
  ?max_iters:int ->
  ?tol:float ->
  Workspace.t ->
  (Vec.t -> Vec.t -> unit) ->
  Vec.t ->
  stats
(** [solve_into ws apply_into b] runs CG on the operator [apply_into] with
    right-hand side [b], from [x = 0], until the residual drops below
    [tol ·‖b‖₂] ([tol] defaults to [1e-10]) or [max_iters] (default
    [10 * dim]) iterations elapse; the solution is left in [ws.x].
    [apply_into src dst] must set [dst <- A src] without touching any
    other workspace buffer. For a singular Laplacian operator the caller
    must supply [b] orthogonal to the kernel; the iterate then stays in
    the range. After the workspace warm-up, each iteration performs zero
    heap allocations (asserted via [Gc.minor_words] deltas in the test
    suite). Raises [Invalid_argument] if [Workspace.dim ws <> Vec.dim b]. *)
