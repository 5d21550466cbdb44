(** Deterministic workload generators for tests, examples and benchmarks.

    Every generator is a pure function of its parameters (including [seed]),
    so experiment series are reproducible run-to-run. *)

(** {1 Undirected graphs} *)

val path : int -> Graph.t

val cycle : int -> Graph.t

val star : int -> Graph.t

val complete : ?w:float -> int -> Graph.t

val complete_bipartite : int -> int -> Graph.t

val grid : int -> int -> Graph.t
(** [grid r c] is the r×c grid graph on [r*c] vertices. *)

val hypercube : int -> Graph.t
(** [hypercube d] has [2^d] vertices; every vertex has even degree iff [d] is
    even, making it a handy Eulerian test case. *)

val circulant : int -> int list -> Graph.t
(** [circulant n offsets] connects [i] to [i ± o mod n] for each offset;
    offsets are deduplicated. Raises [Invalid_argument] when [n < 1]. *)

val expander : int -> int -> Graph.t
(** [expander n d] is a deterministic d-ish-regular circulant expander
    (offsets [1, 2, 4, 8, ...]): conductance bounded away from 0 in practice,
    used to exercise the "already an expander" path of the decomposition.
    Raises [Invalid_argument] when [n < 1]. *)

val gnp : ?seed:int64 -> int -> float -> Graph.t
(** Erdős–Rényi-style deterministic graph: every pair is an edge when the
    seeded PRNG says so. *)

val connected_gnp : ?seed:int64 -> int -> float -> Graph.t
(** [gnp] plus a random Hamiltonian path so the result is connected. *)

val weighted_gnp : ?seed:int64 -> int -> float -> int -> Graph.t
(** [weighted_gnp n p u]: integer weights drawn uniformly from [1..u]. *)

val planted_partition : ?seed:int64 -> int -> float -> float -> Graph.t
(** [planted_partition n p_in p_out]: two communities of [n/2]; a sparse cut
    the expander decomposition must find. *)

val barbell : int -> Graph.t
(** Two [k]-cliques joined by a single edge — conductance [Θ(1/k²)]. *)

(** {1 Eulerian graphs} *)

val even_gnp : ?seed:int64 -> int -> float -> Graph.t
(** A [connected_gnp] graph patched to have all-even degrees by matching up
    odd-degree vertices (valid input for Theorem 1.4). *)

val cycle_union : ?seed:int64 -> int -> int -> Graph.t
(** [cycle_union n k] is a multigraph union of [k] random cycles covering
    all of [0..n-1]; Eulerian by construction. *)

(** {1 Directed flow networks} *)

val layered_network : ?seed:int64 -> int -> int -> int -> Digraph.t
(** [layered_network layers width maxcap]: source 0, sink last; dense random
    arcs between consecutive layers — the classic max-flow benchmark family. *)

val random_network : ?seed:int64 -> int -> int -> int -> Digraph.t
(** [random_network n m maxcap]: [m] random arcs plus a guaranteed
    source-sink backbone. Source is 0, sink is [n-1]. *)

val unit_bipartite : ?seed:int64 -> int -> float -> Digraph.t
(** Unit-capacity bipartite matching instance (2k+2 vertices: source, k left,
    k right, sink), the motivating workload of CMSV min-cost flow. *)

val random_mcf : ?seed:int64 -> int -> int -> int -> Digraph.t * int array
(** [random_mcf n m maxcost]: a unit-capacity digraph with costs in
    [1..maxcost] and a feasible demand vector [σ] (sums to zero), built by
    routing a hidden feasible flow. *)
