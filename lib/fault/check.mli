(** Certified output checkers for every pipeline stage.

    Each validator re-derives an output's defining invariants from the
    input instance alone (never from the algorithm's intermediate state)
    in O(m + n) time, and returns a structured {!verdict}: [Pass], or a
    counterexample naming the violated invariant and the witness — the
    contract {!Recover} and the chaos suite build on. *)

type verdict =
  | Pass
  | Fail of {
      invariant : string;  (** short name, e.g. ["conservation"] *)
      counterexample : string;  (** the witness, human-readable *)
    }

val to_string : verdict -> string
(** ["pass"], or ["FAIL[invariant]: counterexample"] (used in logs and
    error messages). *)

val bfs_tree : Graph.t -> root:int -> int array -> verdict
(** Levels from a BFS with [-1] = unreached: root at level 0, edge levels
    differ by ≤ 1, every reached non-root has a parent one level closer,
    and a connected graph is fully covered. *)

val sssp : Graph.t -> src:int -> float array -> verdict
(** Shortest-path distances: zero at the source, triangle inequality along
    every edge, and every finite distance witnessed by a tight incident
    edge (all to within 1e-6). *)

val max_flow : Digraph.t -> s:int -> t:int -> value:float -> Flow.t -> verdict
(** Capacity + nonnegativity, conservation away from [s]/[t], and the
    claimed value (Flow §2.4 definitions), each to within 1e-6. *)

val mcf : Digraph.t -> sigma:int array -> cost_bound:float -> Flow.t -> verdict
(** Capacity, demand satisfaction (condition (1')), and cost at most
    [cost_bound], each to within 1e-6. *)

val eulerian : Graph.t -> bool array -> verdict
(** Per-edge orientation bits: in-degree equals out-degree everywhere. *)

val mst : Graph.t -> weight:float -> int list -> verdict
(** [mst g ~weight edges]: the edge-id list is duplicate-free and in range,
    acyclic, spans every connected component of [g], sums to the claimed
    [weight], and that weight is optimal (certified against an independent
    Kruskal re-derivation — the minimum spanning forest weight is unique
    even when the edge set is not). Weights compare to within 1e-9. *)

val solver_residual : ?eps:float -> Graph.t -> b:float array -> float array -> verdict
(** [‖Lx − b‖ ≤ eps·‖b‖] with [L] applied edge-wise ([eps] defaults to
    1e-4, matching the solver's default target). *)

val sparsifier : Graph.t -> Graph.t -> verdict
(** [sparsifier original sparse]: node count preserved, edge count within
    the Theorem 3.3 size bound, connectivity preserved, and every weight
    finite and at most [n²·U]. *)
