(** Electrical flows — the inner object of both interior point methods.

    An electrical flow on an undirected support with per-edge resistances
    [r_e] and demand [b] is [f_e = (φ_u − φ_v)/r_e] where [L φ = b] with
    conductances [1/r_e]. One IPM iteration computes exactly one or two of
    these, each a Laplacian solve (Theorem 1.1: [n^{o(1)}] rounds). *)

type t = {
  potentials : Linalg.Vec.t;  (** φ, centered *)
  flow : float array;  (** per support edge, positive in the u→v direction *)
  energy : float;  (** Σ r_e f_e² *)
  solver_rounds : int;  (** rounds charged by the Laplacian solve *)
  solver_iterations : int;
}

type solver =
  | Exact  (** dense grounded Cholesky — oracle for tests and small runs *)
  | Cg of float  (** distributed CG with the given tolerance *)
  | Theorem_1_1 of float
      (** the paper's solver ({!Laplacian.Solver.solve}), with its ε;
          slow per call but gives the true round accounting *)

val compute :
  ?solver:solver ->
  support:Graph.t ->
  resistance:(int -> float) ->
  b:Linalg.Vec.t ->
  unit ->
  t
(** [compute ~support ~resistance ~b ()] solves the electrical-flow problem
    on [support] (edge ids of [support] index [resistance] and the output
    [flow]). [b] must sum to 0 and be supported on one connected component.
    Default solver: [Cg 1e-10]. It fills one conductance array per solve
    ([1 / resistance id] per edge) and runs {!Linalg.Cg.solve_into} on a
    fresh workspace over {!Graph.apply_conductance_laplacian_into} on
    [support] with that array, from the centered [b], and centers the
    potentials it returns. [Exact] and [Theorem_1_1] build the
    conductance-weighted [Graph.t] they need. On a disconnected support,
    [Theorem_1_1] solves on the component that carries [b] and centers
    the potentials over all vertices; a [b] that is nonzero on two
    components raises [Invalid_argument]. Raises [Invalid_argument] when
    [b] does not have one entry per vertex of [support], on a resistance
    [<= 0] ("Electrical: non-positive resistance") and on a conductance
    that is not finite and positive, naming the edge. *)

val effective_resistance :
  ?solver:solver -> Graph.t -> int -> int -> float
(** [effective_resistance g u v] with resistances = 1/weight: the energy of a
    unit u→v electrical flow — used by examples and tests (and a classic
    Laplacian-paradigm quantity in its own right). It is [0.] when
    [u = v], and [infinity] when no path joins [u] and [v] (one BFS from
    [u] decides this before any solve). Raises [Invalid_argument] naming
    the vertex and [n] if [u] or [v] is not in [0 .. n-1]. *)
