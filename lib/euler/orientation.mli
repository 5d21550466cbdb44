(** Deterministic Eulerian orientations in the congested clique —
    Theorem 1.4, in [O(log n · log* n)] rounds.

    The algorithm, exactly as the paper's proof runs it:
    + every node pairs its incident edges internally (round-free) — this
      implicitly decomposes the edge set into closed trails;
    + [O(log n)] contraction iterations: each ring of active trail positions
      is 3-colored with Cole–Vishkin in [O(log* n)] rounds ({!Coloring}),
      a maximal matching is read off the coloring, the higher-ID endpoint of
      every matched link stays active, and the ≤ 3-long runs of deactivated
      positions are bridged in a constant number of rounds using Lenzen
      routing (many rings share clique links, which is where the congested
      clique's power is used);
    + the [O(1)] survivors of each ring elect a leader, which picks the
      ring's direction; the contraction is replayed in reverse to inform
      every position.

    Orienting every edge along its trail's traversal direction makes
    in-degree equal out-degree at every node, because a closed trail enters
    a vertex exactly as often as it leaves it.

    Round counts are measured per component: each contraction iteration's
    Cole–Vishkin chain runs as node programs on its own clique runtime
    ({!Clique.Kernel.Sim_programs}) and reports its real length; the
    constant-round contraction and reverse phases charge the model
    constants from {!Runtime.Cost}. Everything flows into one phase-tagged
    {!Runtime.Cost.t} ledger, reported in [phase_rounds]. *)

type ring_edge = {
  edge : int;  (** edge identifier in the input graph *)
  along : bool;  (** [true] when the trail traverses the edge u→v as stored *)
}

type selector =
  | Cole_vishkin  (** deterministic, [O(log* n)] rounds per iteration *)
  | Sampling of int64
      (** the paper's randomized remark after Theorem 1.4: select each
          active position by a (seeded) coin flip instead of coloring,
          removing the [log* n] factor; a ring that would lose every
          position keeps its highest ID *)

type result = {
  orientation : bool array;
      (** per edge id: [true] = oriented u→v as stored in the graph *)
  rounds : int;  (** congested-clique rounds (forward + decision + reverse) *)
  rings : int;  (** number of closed trails in the decomposition *)
  iterations : int;  (** contraction iterations (the [log n] factor) *)
  coloring_rounds : int;  (** total rounds spent inside Cole–Vishkin *)
  phase_rounds : (string * int) list;
      (** ledger breakdown: ["coloring"], ["bridge"], ["reverse"],
          ["decision"] (sorted; empty for an edgeless graph) *)
}

val is_eulerian : Graph.t -> bool
(** Every vertex has even degree. *)

val orient :
  ?selector:selector -> ?choose:(ring_edge list -> bool) -> Graph.t -> result
(** [orient g] computes an Eulerian orientation of the Eulerian multigraph
    [g]. Raises [Invalid_argument] if some degree is odd.

    [choose] is the leader's per-ring direction rule: it receives the ring's
    edges in trail order and returns [true] to keep the trail direction,
    [false] to flip the whole ring. The default keeps the trail direction
    (the paper's "arbitrarily picks"); flow rounding supplies the
    cost-comparison rule of Lemma 4.2 (and the force-(t,s)-forward rule)
    here — this is exactly the information the leader has, since it "knows
    the cycle implicitly". *)

val check : Graph.t -> bool array -> bool
(** [check g orientation]: in-degree equals out-degree at every vertex. *)

val rounds_reference : n:int -> int
(** The [O(log n · log* n)] reference curve for the E3 bench, with this
    implementation's constants. *)
