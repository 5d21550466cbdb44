module Vec = Linalg.Vec
module Dense = Linalg.Dense
module Chebyshev = Linalg.Chebyshev
module Graph = Graph
module Digraph = Digraph
module Gen = Gen
module Runtime = Runtime
module Cost = Runtime.Cost
module Sim = Clique.Sim
module Kernel = Clique.Kernel
module Congest = Clique.Congest
module Boruvka = Clique.Boruvka
module Conductance = Expander.Conductance
module Decomposition = Expander.Decomposition
module Sparsifier = Sparsify.Spectral
module Quality = Sparsify.Quality
module Tree = Sparsify.Tree
module Solver = Laplacian.Solver
module Orientation = Euler.Orientation
module Flow_rounding = Rounding.Flow_rounding
module Flow = Flow
module Electrical = Electrical
module Dinic = Dinic
module Ford_fulkerson = Ford_fulkerson
module Trivial = Trivial
module Maxflow = Maxflow_ipm
module Mincostflow = Mcf_ipm
module Mcf_ssp = Mcf_ssp
module Cmsv_bipartite = Cmsv_bipartite

let solve_laplacian ?eps g b =
  let r = Laplacian.Solver.solve ?eps g b in
  (r.Laplacian.Solver.x, r)

let spectral_sparsifier g = Sparsify.Spectral.sparsify g

let eulerian_orientation g = Euler.Orientation.orient g

let round_flow ?cost g ~s ~t ~delta f =
  Rounding.Flow_rounding.round ?cost g ~s ~t ~delta f

let max_flow g ~s ~t = Maxflow_ipm.max_flow g ~s ~t

let min_cost_flow g ~sigma = Mcf_ipm.solve g ~sigma

let min_cost_max_flow g ~s ~t = Mcf_ipm.solve_max_flow_min_cost g ~s ~t

let minimum_spanning_tree g = Clique.Boruvka.minimum_spanning_tree g

let effective_resistance g u v = Electrical.effective_resistance g u v

let version = "0.1.0"

let pp_phases fmt phases =
  Format.fprintf fmt "@[<h>";
  List.iteri
    (fun i (name, rounds) ->
      if i > 0 then Format.fprintf fmt " ";
      Format.fprintf fmt "%s=%d" name rounds)
    phases;
  Format.fprintf fmt "@]"
