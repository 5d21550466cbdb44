(* Tests for product-demand graphs, BSS, the CGLNPS pipeline, and quality
   measurement. *)

module Graph_gen = Gen

let test_quality_identity () =
  let g = Graph_gen.connected_gnp ~seed:2L 20 0.3 in
  let alpha = Sparsify.Quality.approximation_factor g g in
  Alcotest.(check bool) "alpha(G,G) = 1" true
    (alpha >= 1. -. 1e-6 && alpha < 1.01)

let test_quality_scaled () =
  let g = Graph_gen.connected_gnp ~seed:2L 15 0.3 in
  let h = Graph.scale_weights 4. g in
  (* L_G = (1/4) L_H: α = 4 *)
  let alpha = Sparsify.Quality.approximation_factor g h in
  Alcotest.(check bool) "alpha(G,4G) = 4" true
    (alpha > 3.9 && alpha < 4.1);
  (* ...but the pencil condition number is 1: perfect preconditioner. *)
  let kappa = Sparsify.Quality.relative_condition g h in
  Alcotest.(check bool) "kappa = 1" true (kappa < 1.01)

let test_quality_tree_vs_cycle () =
  (* H = spanning path of a cycle: known α = n-ish (resistance). *)
  let g = Graph_gen.cycle 8 in
  let h = Graph_gen.path 8 in
  let alpha = Sparsify.Quality.approximation_factor g h in
  Alcotest.(check bool) "path approximates cycle poorly" true (alpha > 2.)

let test_product_demand_complete_mass () =
  let g = Graph_gen.connected_gnp ~seed:5L 12 0.4 in
  let pd = Sparsify.Product_demand.complete g in
  (* Complete graph on the support. *)
  Alcotest.(check int) "complete" (12 * 11 / 2) (Graph.m pd)

let test_product_demand_sparse_mass_preserved () =
  let g = Graph_gen.connected_gnp ~seed:6L 40 0.3 in
  let pd_complete = Sparsify.Product_demand.complete g in
  let pd_sparse = Sparsify.Product_demand.sparse g in
  let total_c = Graph.total_weight pd_complete in
  let total_s = Graph.total_weight pd_sparse in
  Alcotest.(check bool) "total demand preserved" true
    (Float.abs (total_c -. total_s) < 1e-6 *. total_c);
  Alcotest.(check bool) "actually sparse" true
    (Graph.m pd_sparse < Graph.m pd_complete)

let test_product_demand_approximates_expander () =
  (* On an expander cluster, the product demand graph is a good spectral
     stand-in (CGLNPS: 4/φ²). *)
  let g = Graph_gen.expander 32 8 in
  let pd = Sparsify.Product_demand.complete g in
  let alpha = Sparsify.Quality.approximation_factor g pd in
  Alcotest.(check bool)
    (Printf.sprintf "alpha = %f finite and moderate" alpha)
    true
    (Float.is_finite alpha && alpha < 50.)

let test_product_demand_sparse_quality () =
  let g = Graph_gen.expander 48 8 in
  let pd_c = Sparsify.Product_demand.complete g in
  let pd_s = Sparsify.Product_demand.sparse g in
  let alpha = Sparsify.Quality.approximation_factor pd_c pd_s in
  Alcotest.(check bool)
    (Printf.sprintf "sparse vs complete alpha = %f" alpha)
    true
    (Float.is_finite alpha && alpha < 60.)

let test_bss_sparsifies () =
  let g = Graph_gen.connected_gnp ~seed:8L 24 0.5 in
  let h = Sparsify.Bss.sparsify ~d:6 g in
  Alcotest.(check bool) "fewer edges" true (Graph.m h <= 6 * 23);
  Alcotest.(check bool) "substantially fewer" true (Graph.m h < Graph.m g);
  let alpha = Sparsify.Quality.approximation_factor g h in
  Alcotest.(check bool)
    (Printf.sprintf "bss alpha = %f" alpha)
    true
    (Float.is_finite alpha && alpha < 10.)

let test_bss_small_input_passthrough () =
  let g = Graph_gen.path 5 in
  let h = Sparsify.Bss.sparsify ~d:4 g in
  Alcotest.(check bool) "unchanged" true (Graph.equal_structure g h)

let test_spectral_pipeline_basic () =
  let g = Graph_gen.connected_gnp ~seed:13L 60 0.3 in
  let r = Sparsify.Spectral.sparsify g in
  let h = r.Sparsify.Spectral.sparsifier in
  Alcotest.(check int) "same vertex count" 60 (Graph.n h);
  Alcotest.(check bool) "rounds positive" true (r.Sparsify.Spectral.rounds > 0);
  Alcotest.(check bool) "connected" true (Graph.is_connected h);
  let alpha = Sparsify.Quality.approximation_factor g h in
  Alcotest.(check bool)
    (Printf.sprintf "pipeline alpha = %f" alpha)
    true
    (Float.is_finite alpha && alpha < 200.)

let test_spectral_pipeline_sparsifies_dense () =
  let g = Graph_gen.connected_gnp ~seed:14L 80 0.6 in
  let r = Sparsify.Spectral.sparsify g in
  let h = r.Sparsify.Spectral.sparsifier in
  Alcotest.(check bool)
    (Printf.sprintf "m(H)=%d < m(G)=%d" (Graph.m h) (Graph.m g))
    true
    (Graph.m h < Graph.m g);
  Alcotest.(check bool) "within size bound" true
    (Graph.m h
    <= Sparsify.Spectral.size_bound ~n:80 ~u:(Graph.max_weight g))

let test_spectral_pipeline_weighted () =
  let g = Graph_gen.weighted_gnp ~seed:15L 40 0.4 64 in
  let r = Sparsify.Spectral.sparsify g in
  Alcotest.(check bool) "multiple weight classes" true
    (r.Sparsify.Spectral.classes > 1);
  let alpha =
    Sparsify.Quality.approximation_factor g r.Sparsify.Spectral.sparsifier
  in
  Alcotest.(check bool)
    (Printf.sprintf "weighted alpha = %f" alpha)
    true
    (Float.is_finite alpha && alpha < 400.)

let test_spectral_barbell () =
  (* The pipeline must keep the bridge; otherwise the sparsifier is
     disconnected and α = ∞. *)
  let g = Graph_gen.barbell 12 in
  let r = Sparsify.Spectral.sparsify g in
  Alcotest.(check bool) "connected" true
    (Graph.is_connected r.Sparsify.Spectral.sparsifier)

let test_spectral_preconditions_chebyshev () =
  (* End-to-end: sparsifier as Chebyshev preconditioner beats its κ bound. *)
  let g = Graph_gen.connected_gnp ~seed:16L 50 0.4 in
  let r = Sparsify.Spectral.sparsify g in
  let h = r.Sparsify.Spectral.sparsifier in
  let kappa = Sparsify.Quality.relative_condition g h in
  Alcotest.(check bool) "kappa finite" true (Float.is_finite kappa);
  let lh = Graph.laplacian_dense h in
  let b =
    Linalg.Vec.center
      (Linalg.Vec.init 50 (fun i -> float_of_int ((i * 13) mod 11)))
  in
  let ws = Linalg.Chebyshev.Workspace.create 50 in
  let st =
    Linalg.Chebyshev.solve_into
      ~apply_a_into:(Graph.apply_laplacian_into g)
      ~solve_b_into:(fun v dst ->
        Linalg.Vec.copy_into
          (Linalg.Dense.solve_grounded lh (Linalg.Vec.center v))
          dst)
      ~kappa ~tol:1e-8
      ~max_iters:(Linalg.Chebyshev.iteration_bound ~kappa ~eps:1e-8)
      ws (Linalg.Vec.center b)
  in
  let x = Linalg.Vec.center ws.Linalg.Chebyshev.Workspace.x in
  Alcotest.(check bool)
    (Printf.sprintf "converged in %d iters (κ=%f)" st.Linalg.Chebyshev.iterations
       kappa)
    true st.Linalg.Chebyshev.converged;
  let res = Linalg.Vec.sub (Graph.apply_laplacian g x) b in
  Alcotest.(check bool) "residual small" true
    (Linalg.Vec.norm2 res <= 1e-6 *. Linalg.Vec.norm2 b)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"sparsifier always connected on connected input" ~count:15
      small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 41)) 30 0.3
        in
        let r = Sparsify.Spectral.sparsify g in
        Graph.is_connected r.Sparsify.Spectral.sparsifier);
    Test.make ~name:"sparsifier alpha finite" ~count:10 small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 53)) 25 0.35
        in
        let r = Sparsify.Spectral.sparsify g in
        Float.is_finite
          (Sparsify.Quality.approximation_factor g
             r.Sparsify.Spectral.sparsifier));
  ]

let suite =
  [
    Alcotest.test_case "quality identity" `Quick test_quality_identity;
    Alcotest.test_case "quality scaled" `Quick test_quality_scaled;
    Alcotest.test_case "quality path vs cycle" `Quick test_quality_tree_vs_cycle;
    Alcotest.test_case "product demand complete" `Quick
      test_product_demand_complete_mass;
    Alcotest.test_case "product demand mass preserved" `Quick
      test_product_demand_sparse_mass_preserved;
    Alcotest.test_case "product demand approximates expander" `Quick
      test_product_demand_approximates_expander;
    Alcotest.test_case "product demand sparse quality" `Quick
      test_product_demand_sparse_quality;
    Alcotest.test_case "bss sparsifies" `Slow test_bss_sparsifies;
    Alcotest.test_case "bss passthrough" `Quick test_bss_small_input_passthrough;
    Alcotest.test_case "pipeline basic" `Quick test_spectral_pipeline_basic;
    Alcotest.test_case "pipeline sparsifies dense" `Quick
      test_spectral_pipeline_sparsifies_dense;
    Alcotest.test_case "pipeline weighted" `Quick test_spectral_pipeline_weighted;
    Alcotest.test_case "pipeline barbell connected" `Quick test_spectral_barbell;
    Alcotest.test_case "pipeline preconditions chebyshev" `Quick
      test_spectral_preconditions_chebyshev;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests

(* ------------------------------------------------------------------ Tree *)

let test_tree_is_spanning () =
  let g = Graph_gen.connected_gnp ~seed:61L 30 0.3 in
  let t = Sparsify.Tree.max_weight_spanning_tree g in
  Alcotest.(check int) "n-1 edges" 29 (Graph.m t);
  Alcotest.(check bool) "connected" true (Graph.is_connected t)

let test_tree_dominated () =
  (* L_T ≼ L_G since T ⊆ G: the pencil's lower extreme is ≥ 1. *)
  let g = Graph_gen.connected_gnp ~seed:62L 20 0.4 in
  let t = Sparsify.Tree.max_weight_spanning_tree g in
  let lmin, _ = Sparsify.Quality.pencil_bounds g t in
  Alcotest.(check bool) "T dominated by G" true (lmin >= 1. -. 1e-6)

let test_tree_stretch_bounds_condition () =
  let g = Graph_gen.connected_gnp ~seed:63L 20 0.4 in
  let t = Sparsify.Tree.max_weight_spanning_tree g in
  let kappa = Sparsify.Quality.relative_condition g t in
  let bound = Sparsify.Tree.stretch_bound g t in
  Alcotest.(check bool)
    (Printf.sprintf "kappa %.2f <= stretch bound %.2f" kappa bound)
    true
    (kappa <= bound +. 1e-6)

let test_tree_worse_than_sparsifier_on_cycle_rich () =
  (* On an expander the tree preconditioner's κ is much worse than the
     Theorem 3.3 sparsifier's — the reason the paper builds sparsifiers. *)
  let g = Graph_gen.expander 48 8 in
  let t = Sparsify.Tree.max_weight_spanning_tree g in
  let sp = (Sparsify.Spectral.sparsify g).Sparsify.Spectral.sparsifier in
  let k_tree = Sparsify.Quality.relative_condition g t in
  let k_sp = Sparsify.Quality.relative_condition g sp in
  Alcotest.(check bool)
    (Printf.sprintf "tree κ=%.1f > sparsifier κ=%.1f" k_tree k_sp)
    true (k_tree > k_sp)

let suite =
  suite
  @ [
      Alcotest.test_case "tree spanning" `Quick test_tree_is_spanning;
      Alcotest.test_case "tree dominated" `Quick test_tree_dominated;
      Alcotest.test_case "tree stretch bound" `Quick
        test_tree_stretch_bounds_condition;
      Alcotest.test_case "tree vs sparsifier" `Quick
        test_tree_worse_than_sparsifier_on_cycle_rich;
    ]

(* ------------------------------------- randomized sampling backend (remark) *)

let test_foster_theorem () =
  (* Leverage scores of a connected graph sum to n − 1. *)
  let g = Graph_gen.connected_gnp ~seed:71L 25 0.3 in
  let total =
    Array.fold_left ( +. ) 0. (Sparsify.Sampling.leverage_scores g)
  in
  Alcotest.(check (float 1e-6)) "Foster: sum = n-1" 24. total

let test_leverage_scores_tree_edges () =
  (* On a tree every edge has leverage exactly 1. *)
  let g = Graph_gen.path 8 in
  Array.iter
    (fun s -> Alcotest.(check (float 1e-8)) "bridge leverage" 1. s)
    (Sparsify.Sampling.leverage_scores g)

let test_sampling_sparsifier_quality () =
  let g = Graph_gen.connected_gnp ~seed:72L 50 0.6 in
  let h = Sparsify.Sampling.sparsify ~seed:1L g in
  Alcotest.(check bool) "sparser" true (Graph.m h < Graph.m g);
  let alpha = Sparsify.Quality.approximation_factor g h in
  Alcotest.(check bool)
    (Printf.sprintf "alpha = %f" alpha)
    true
    (Float.is_finite alpha && alpha < 20.)

let test_sampling_deterministic_given_seed () =
  let g = Graph_gen.connected_gnp ~seed:73L 30 0.4 in
  let h1 = Sparsify.Sampling.sparsify ~seed:9L g in
  let h2 = Sparsify.Sampling.sparsify ~seed:9L g in
  Alcotest.(check bool) "same seed same graph" true
    (Graph.equal_structure h1 h2)

let suite =
  suite
  @ [
      Alcotest.test_case "foster theorem" `Quick test_foster_theorem;
      Alcotest.test_case "tree leverage" `Quick test_leverage_scores_tree_edges;
      Alcotest.test_case "sampling sparsifier quality" `Quick
        test_sampling_sparsifier_quality;
      Alcotest.test_case "sampling deterministic per seed" `Quick
        test_sampling_deterministic_given_seed;
    ]
