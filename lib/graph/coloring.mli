(** Deterministic Cole–Vishkin coloring of cycles (CV86, GPS87).

    Step 2a of the paper's Eulerian-orientation algorithm (Theorem 1.4)
     3-colors each cycle in [O(log* n)] communication rounds, derives a
    maximal matching from the coloring, and marks the higher-ID endpoint of
    every matched edge. This module implements the color-reduction chain:

    - start from unique [O(log n)]-bit identifiers;
    - one Cole–Vishkin step maps a [k]-bit coloring to a [2⌈log k⌉+2]-bit
      coloring using only each vertex's and its successor's colors (one round
      of communication each);
    - iterate until 6 colors remain ([O(log* n)] steps), then three
      shift-and-recolor rounds reduce 6 to 3.

    A cycle cover is given by successor/predecessor arrays over positions
    [0..k-1]; several disjoint cycles may be packed into one array.

    This module holds only the node-local arithmetic of the chain; the
    communication schedule (who tells whom its color each round) lives in
    the kernel-independent node program [Clique.Programs.S.three_color]. *)

val cv_combine : int -> int -> int
(** [cv_combine c cs] is one position's Cole–Vishkin update: combine own
    color [c] with successor color [cs] into the index of the lowest
    differing bit paired with own bit value there. Requires [c <> cs];
    the results of adjacent positions stay distinct. *)

val max_color : int array -> int
(** Largest color in use — the chain's termination predicate
    (reduce while [max_color ≥ 6]). *)

val is_proper : int array -> succ:int array -> bool

val maximal_matching_on_cycles :
  colors:int array -> succ:int array -> pred:int array -> bool array
(** [maximal_matching_on_cycles ~colors ~succ ~pred] greedily matches cycle
    edges [(i, succ i)] by processing color classes in increasing order;
    returns [matched] with [matched.(i) = true] iff edge [(i, succ.(i))] is
    in the matching. The result is a maximal matching on every cycle. *)

val log_star : int -> int
(** Iterated logarithm, for the E3 bench's reference curve. *)
