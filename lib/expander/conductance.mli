(** Conductance (Definition 3.1) and sweep cuts.

    Volumes use weighted degrees, which coincides with the unweighted
    definition on weight-1 graphs — the case the decomposition pipeline
    actually runs on (weights are handled by binary weight classes in
    Theorem 3.3). *)

val of_cut : Graph.t -> bool array -> float
(** [of_cut g s = w(E(S, S̄)) / min(vol S, vol S̄)]; [infinity] when either
    side is empty or has zero volume. *)

val exact : Graph.t -> float
(** Exact conductance [Φ(G)] by enumerating all cuts — exponential; only for
    [n ≤ 20] (raises [Invalid_argument] beyond). Test oracle. *)

val exact_cut : Graph.t -> bool array * float
(** [exact_cut g] is the cut attaining {!exact}: the first of least
    conductance among the [2^(n−1) − 2] proper cuts that put vertex 0
    inside, scanned as bit masks over vertices [1..n−1] in increasing
    order, with its conductance bit-identical to {!of_cut}'s. It is
    [(all-false, infinity)] when no cut has finite conductance (for
    instance [n < 2]). The scan allocates nothing per cut. Raises
    [Invalid_argument] for [n > 20]. *)

val sweep_cut : Graph.t -> Linalg.Vec.t -> bool array * float
(** [sweep_cut g x] orders vertices by [x] and returns the best of the [n−1]
    prefix cuts together with its conductance — the Cheeger rounding used by
    the deterministic decomposition. *)
