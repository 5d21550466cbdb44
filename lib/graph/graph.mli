(** Undirected weighted multigraphs.

    This is the input type of the Laplacian pipeline: vertices are
    [0 .. n-1] (vertex [i] is congested-clique node [i]), and each edge
    carries a positive weight. Parallel edges are allowed — they arise
    naturally in the flow-rounding subroutine — and self-loops are rejected
    because they do not contribute to a Laplacian. *)

type edge = { u : int; v : int; w : float }

type t

val create : int -> edge list -> t
(** [create n edges] builds a graph on vertices [0..n-1]. Raises
    [Invalid_argument] on out-of-range endpoints, self-loops, or a
    weight that is not finite and positive (zero, negative, NaN, ±∞). *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges (counting multiplicity). *)

val edges : t -> edge array

val edge : t -> int -> edge
(** [edge g i] is the edge with identifier [i], [0 ≤ i < m g]. *)

val adj : t -> int -> (int * int) list
(** [adj g v] lists [(neighbor, edge_id)] pairs incident to [v]; parallel
    edges appear once per copy. *)

val degree : t -> int -> int
(** Unweighted degree (number of incident edge endpoints). *)

val weighted_degree : t -> int -> float

val total_weight : t -> float

val max_weight : t -> float
(** Largest edge weight ([0.] on the empty graph) — the paper's [U]. *)

val laplacian_dense : t -> Linalg.Dense.t
(** The graph Laplacian [L = D − A] as a dense matrix. Parallel edges sum. *)

val laplacian_grounded : t -> Linalg.Dense.t
(** [laplacian_grounded g] is {!laplacian_dense} without row and column 0:
    the SPD matrix of a connected graph grounded at vertex 0, entry for
    entry bit-identical to the copy out of the full matrix. Raises
    [Invalid_argument] on the empty graph. *)

val apply_laplacian : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [apply_laplacian g x] is [L_G x] computed edge-by-edge without
    materializing [L] — the one-round matvec of the clique model. *)

val apply_laplacian_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit
(** [apply_laplacian_into g x y] sets [y <- L_G x] without allocating
    ([y] must not alias [x]); the [apply_into] operator shape consumed by
    {!Linalg.Cg.solve_into} and {!Linalg.Chebyshev.solve_into}. *)

val quadratic_form : t -> Linalg.Vec.t -> float
(** [quadratic_form g x = xᵀ L_G x = Σ_e w_e (x_u − x_v)²]. *)

val induced : t -> int array -> t * int array
(** [induced g vs] is the subgraph induced by the vertex set [vs] with
    vertices renumbered [0..k-1]; also returns the map from new to old ids
    (which is [vs] itself, for convenience). *)

val sub_edges : t -> int list -> t
(** [sub_edges g ids] keeps only the edges with the given identifiers (same
    vertex set). *)

val union : t -> t -> t
(** Edge union of two graphs on the same vertex set. *)

val map_weights : (edge -> float) -> t -> t

val scale_weights : float -> t -> t

val is_connected : t -> bool

val simple_of_edges : int -> edge array -> t
(** [simple_of_edges n es] collapses the parallel edges of the multigraph
    [create n (Array.to_list es)] by summing their weights, producing a
    simple graph with the same Laplacian, without building the multigraph
    in between. Raises as {!create} does, on an input edge or on a sum
    that overflows to ∞. *)

val equal_structure : t -> t -> bool
(** Same vertex count and same multiset of (endpoints, weight) edges. *)
