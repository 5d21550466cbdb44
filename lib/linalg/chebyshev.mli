(** Preconditioned Chebyshev iteration — Theorem 2.2 of the paper
    (Peng's formulation of the classical method, cf. Saad, Axelsson).

    Given symmetric PSD operators [A], [B] with [A ≼ B ≼ κ·A], the iteration
    applies a linear operator [Z ≈ A†] to the right-hand side using
    [O(√κ · log(1/ε))] iterations, each consisting of one product with [A],
    one solve with [B], and O(1) vector operations — which is exactly the
    per-iteration round cost the congested-clique solver charges
    (Corollary 2.3): the matvec is one communication round, the [B]-solve is
    internal because every node knows the sparsifier. *)

type stats = {
  iterations : int;
  residual : float;  (** final ‖b − A x‖₂ / ‖b‖₂ *)
  converged : bool;
}

val iteration_bound : kappa:float -> eps:float -> int
(** The a-priori iteration count [⌈√κ · ln(2/ε)⌉ + 1] of Theorem 2.2,
    used by the round-accounting layer and the E2 bench. *)

(** Preallocated iteration state for {!solve_into}: the five vectors
    ([x], [r], [z], [d], [ad]) of the semi-iteration. Reusable across
    sequential solves of the same dimension; not safe to share between
    concurrent solves. *)
module Workspace : sig
  type t = { x : Vec.t; r : Vec.t; z : Vec.t; d : Vec.t; ad : Vec.t }

  val create : int -> t

  val dim : t -> int
end

val solve_into :
  ?max_iters:int ->
  ?tol:float ->
  apply_a_into:(Vec.t -> Vec.t -> unit) ->
  solve_b_into:(Vec.t -> Vec.t -> unit) ->
  kappa:float ->
  Workspace.t ->
  Vec.t ->
  stats
(** [solve_into ~apply_a_into ~solve_b_into ~kappa ws b] approximates
    [A† b] and leaves it in [ws.x]; all iteration state lives in [ws].
    [apply_a_into src dst] must set [dst <- A src] and [solve_b_into src
    dst] must set [dst <- B† src] (the preconditioner solve), each writing
    every entry of [dst] and allocating nothing if the whole iteration is
    to stay allocation-free. [kappa] is the relative condition number
    bound [A ≼ B ≼ κA]. Stops when the relative residual is ≤ [tol]
    (default [1e-10]) or after [max_iters] (default {!iteration_bound}
    with [eps = tol]) iterations.

    For singular (Laplacian) operators, pass [b] in the range (centered)
    and keep [solve_b_into]'s output centered; the iterate then stays in
    the range. Raises [Invalid_argument] on a workspace dimension
    mismatch. *)
