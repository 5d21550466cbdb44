(** Product demand graphs and their deterministic internal sparsification.

    Theorem 3.3's proof replaces each expander cluster [G'] by (a sparsifier
    of) the *product demand graph* [H(deg_{G'})]: the complete graph on
    [V(G')] with weights [deg(u)·deg(v)], scaled by [2/|E(G')|] — a
    [4/φ²]-approximation of [G'] when [Φ(G') ≥ φ] (CGLNPS'20).

    The KLPS'16 near-linear internal sparsifier is substituted (DESIGN.md
    substitution 3) by a deterministic degree-bucket expander construction:
    sort vertices into binary degree classes; between every pair of classes
    place an explicit circulant expander carrying that class pair's share of
    the total demand. The approximation factor is measured by
    {!Quality.approximation_factor} in tests and in experiment E1. *)

val complete : Graph.t -> Graph.t
(** [complete g'] is the scaled product demand graph [2/|E| · H(deg_{g'})]
    (a complete graph; only for analysis and tests on small clusters).
    Isolated vertices are left isolated, and so is a pair whose weight
    underflows to zero or overflows to ∞. Requires [Graph.n g' ≥ 2]. *)

val sparse : Graph.t -> Graph.t
(** [sparse g'] is the deterministic sparse stand-in for [complete g']:
    [O(n·t + (#degree classes)²·t)] edges, with circulant degree
    [t = 3 + ⌈log₂ n⌉], and the same total weight between and within
    degree classes. *)

val edge_count : Graph.t -> int
(** [edge_count g'] is the number of vertex pairs [sparse g'] places,
    computed from the degree-class sizes and circulant offsets without
    building the graph. It equals [Graph.m (sparse g')] unless degrees
    near the ends of the float range make pair weights underflow to zero,
    overflow to ∞ or stop being numbers, and [sparse] drops those pairs.
    Requires [Graph.n g' ≥ 2]. *)

val sparse_below : limit:int -> Graph.t -> Graph.t option
(** [sparse_below ~limit g'] is [Some (sparse g')] when that stand-in has
    fewer than [limit] edges and is numerically whole: no pair
    {!edge_count} counts was dropped. Otherwise it is
    [None], and a stand-in of [limit] edges or more is never built.
    Theorem 3.3's pipeline passes a cluster's own edge count as [limit]
    and keeps the cluster verbatim on [None], so an emptied or partial
    stand-in never disconnects it. Requires [Graph.n g' ≥ 2]. *)
