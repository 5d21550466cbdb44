(** Deterministic spectral sparsifiers in the congested clique — Theorem 3.3.

    The CGLNPS'20 pipeline, as the paper implements it (§3): repeatedly
    compute a (1/2, φ)-expander decomposition; replace every expander
    cluster by a sparse stand-in for its product demand graph; recurse on
    the crossing edges. Weighted graphs are handled by binary weight
    classes, costing the extra [log U] factor of the theorem. At the end the
    sparsifier is made known to every node (it is small enough to gather),
    which is what lets Theorem 1.1 do every preconditioner solve internally.

    Approximation quality is measured by {!Quality} (experiment E1); size
    and charged rounds follow the theorem's accounting. *)

type result = {
  sparsifier : Graph.t;  (** known to every node after [rounds] rounds *)
  levels : int;  (** decomposition recursion depth actually used *)
  classes : int;  (** number of binary weight classes (the [log U] factor) *)
  rounds : int;  (** charged congested-clique rounds *)
  phase_rounds : (string * int) list;
      (** ledger breakdown: ["decompose"] (all decomposition calls and their
          result broadcasts) and ["gather"] (making the sparsifier global) *)
}

val sparsify : ?model:Runtime.Model.t -> Graph.t -> result
(** [sparsify g]. Every expander cluster is replaced by its degree-bucket
    stand-in ({!Product_demand.sparse_below}). The decomposition runs at
    [phi = 0.05] (the expander target) and [gamma = 0.25] (which only
    affects the charged round formula: the [n^{O(1/r²)}] knob of
    Theorem 3.2); the recursion stops after [4·⌈log₂ m⌉ + 4] levels, and
    any leftover crossing edges are then kept verbatim, which can only
    improve quality. [model] (default
    {!Runtime.Model.default}, i.e. the [CC_MODEL] environment variable)
    selects unicast vs Broadcast Congested Clique {e accounting}: the
    computed sparsifier is bit-identical under both models, only the
    charged ["decompose"]/["gather"] rounds differ (DESIGN.md §13). *)

val size_bound : n:int -> u:float -> int
(** The [O(n log n log U)] edge-count bound of Theorem 3.3 with this
    implementation's constants; benches check [Graph.m sparsifier] against
    it. *)

val rounds_bound : n:int -> u:float -> gamma:float -> int
(** The [O(log n · log U · n^{O(γ)})] round bound, for reference curves. *)

val bcast_rounds_bound : n:int -> u:float -> int
(** The Broadcast Congested Clique counterpart: polylogarithmic per
    decomposition call ({!Expander.Decomposition.bcast_rounds_formula}),
    matching the [log^{O(1)} n · log U] shape of arXiv:2205.12059. The E11
    reference curve. *)
