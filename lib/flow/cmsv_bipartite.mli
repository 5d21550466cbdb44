(** The CMSV interior point method, verbatim — Appendix C's Algorithms 7–9
    on the bipartite lift.

    {!Mcf_ipm} folds CMSV's bipartite encoding into a two-sided barrier on
    the direct arc form (numerically friendlier, same structure); this
    module instead implements the appendix {e as written}:

    - {b Initialization} (Algorithm 7): auxiliary vertex [v_aux] with
      [2|t(v)|] imbalance arcs of cost [‖c‖₁], then the bipartite graph
      [G = (P ∪ Q, E)] with an edge-vertex [e_uv] per lifted arc, demands
      [b(u) = σ(u) + deg_in(u)], [b(e_uv) = 1], and the explicit central
      initial point [f = ½], [y], [s = c + yᵤ − y_v], [ν = s/(2‖c‖∞)],
      [µ̂ = ‖c‖∞];
    - {b Perturbation} (Algorithm 8): [y_v ← y_v − s_e], [ν_e ← 2ν_e],
      [ν_ē ← ν_ē + ν_e f_e / f_ē], fired while [‖ρ‖_{ν,3} > c_ρ·m^{1/2−η}];
    - {b Progress} (Algorithm 9): resistances [r_e = ν_e/f_e²], two
      electrical solves, the [δ = min(1/(8‖ρ‖_{ν,4}), 1/8)] step, and the
      [f#]/[s'] updates, line by line.

    The fractional bipartite flow maps back to arc flows
    ([f_arc = f_{(u,e_uv)}]), and the same rounding + repair pipeline as
    {!Mcf_ipm} makes the result exact — so this engine is validated against
    the same oracles, and the bench compares the two engines' measured
    iteration counts (both are Õ(m^{3/7}) shapes in the paper). *)

type report = {
  f : Flow.t;  (** exact integral min-cost flow on the input arcs *)
  cost : float;
  ipm_iterations : int;
  perturbations : int;  (** Algorithm 8 firings *)
  laplacian_solves : int;
  repair_augmentations : int;
  rounds : int;
}

val solve :
  ?solver:Electrical.solver ->
  Digraph.t ->
  sigma:int array ->
  report option
(** Same contract as {!Mcf_ipm.solve}. *)
