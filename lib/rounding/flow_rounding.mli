(** Deterministic flow rounding — Cohen's algorithm (Theorem 4.1) driven by
    the congested-clique Eulerian orientation, i.e. Lemma 4.2:
    [O(log n · log* n · log(1/Δ))] rounds.

    Given a flow whose arc values are integer multiples of [Δ] (with [1/Δ] a
    power of two) and which conserves exactly in the [Δ]-grid, each level
    [Δ, 2Δ, 4Δ, …, 1/2] collects the arcs whose value is an odd multiple of
    the current grain; by conservation those arcs form an Eulerian multigraph,
    which is decomposed and oriented by {!Euler.Orientation}; arcs aligned
    with their cycle's traversal gain a grain, the others lose one. Cycle
    directions are chosen so that the total value never decreases (the
    virtual (t,s) arc is forced forward) and, when costs are present, so
    that the total cost never increases. *)

type result = {
  f : float array;  (** rounded flow, same arc indexing as the input *)
  rounds : int;  (** congested-clique rounds (orientations at every level) *)
  levels : int;  (** [log₂(1/Δ)] *)
  phase_rounds : (string * int) list;
      (** ledger breakdown; all orientation rounds land under ["orient"]
          (empty when no level had odd arcs) *)
}

val round :
  ?cost:(int -> float) ->
  Digraph.t ->
  s:int ->
  t:int ->
  delta:float ->
  float array ->
  result
(** [round g ~s ~t ~delta f] rounds every arc value to an adjacent integer.
    Requirements (checked): [1/delta] is a power of two; every [f.(e)] is a
    multiple of [delta] (within 1e-6·delta); [0 ≤ f ≤ cap]; conservation
    holds in grid units at every vertex except [s] and [t].

    Guarantees (the Theorem 4.1 contract, asserted in tests): the result is
    integral, feasible, conserving, with value ≥ the input value; when
    [cost] is given, total cost ≤ the input cost. *)
