(** Spectral sparsification by effective-resistance sampling
    (Spielman–Srivastava) — the *randomized* sparsifier that the paper's
    remark after Theorem 1.3 alludes to: swapping it (or FV22's solver) for
    the deterministic Theorem 3.3 construction turns the [n^{o(1)}] factors
    into [polylog n].

    Kept as an explicitly-randomized ablation backend (seeded, so benches
    stay reproducible); all headline pipelines remain deterministic. *)

val sparsify : ?seed:int64 -> Graph.t -> Graph.t
(** [sparsify g] samples [⌈8·n·ln n⌉] edges with
    probability proportional to [w_e·R_eff(e)] (leverage scores, computed
    exactly via the grounded pseudoinverse — [O(n³)], bench scale) and
    reweights each pick by [w_e/(q·p_e)]. Requires a connected input with
    [n ≥ 2]. *)

val leverage_scores : Graph.t -> float array
(** [w_e·R_eff(e)] per edge; they sum to [n − 1] on a connected graph
    (Foster's theorem — tested). *)
