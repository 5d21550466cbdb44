(** Conjugate gradients on symmetric positive semi-definite operators.

    Used in two places: (a) as the *baseline* Laplacian solver that the
    benchmarks compare the paper's preconditioned-Chebyshev solver against
    (experiment E8), and (b) as the inner exact-ish solver for moderately
    large sparsifier Laplacians where a dense Cholesky would be wasteful.

    The implementation is a zero-allocation workspace kernel
    ({!Workspace}, {!solve_into}); the original allocating entry points
    ({!solve}, {!solve_grounded}) are thin wrappers over it with
    bit-identical results. *)

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
(** [solve_into ws apply_into b] runs CG with all state in [ws]; the
    solution is left in [ws.x]. [apply_into src dst] must set
    [dst <- A src] without touching any other workspace buffer. After the
    workspace warm-up, each iteration performs zero heap allocations
    (asserted via [Gc.minor_words] deltas in the test suite). Raises
    [Invalid_argument] if [Workspace.dim ws <> Vec.dim b]. Stopping rules
    and arithmetic are bit-identical to {!solve}. *)

val solve :
  ?max_iters:int ->
  ?tol:float ->
  (Vec.t -> Vec.t) ->
  Vec.t ->
  Vec.t * stats
(** [solve apply b] runs CG on the operator [apply] with right-hand side [b],
    from [x = 0], until the relative residual drops below [tol] (default
    [1e-10]) or [max_iters] (default [10 * dim]) iterations elapse. For
    singular Laplacian operators the caller must supply [b] orthogonal to
    the kernel; the iterate then stays in the range. Allocating wrapper
    over {!solve_into}. *)

val solve_grounded : ?tol:float -> (Vec.t -> Vec.t) -> Vec.t -> Vec.t * stats
(** Like {!solve} (at most [10 * dim] iterations) but first centers [b]
    (projects out the all-ones kernel of a connected Laplacian) and
    re-centers the solution. *)
