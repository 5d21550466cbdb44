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

(* ------------------------------------------- sparsifier assembly pinned *)

(* Verbatim copy of the sparsifier before candidates were counted first
   and clusters assembled as arrays: every cluster copied by
   [Graph.induced] (the whole-graph one too), every product-demand
   candidate built before the size test, edge lists joined with [@] and
   merged by the former [Graph.reweight_simple]. The one addition is
   [on_candidate], which observes each candidate built and its cluster;
   the one removal is the per-cluster BSS backend, which the library no
   longer has.
   The differential oracle for [Spectral.sparsify]. *)
module Seed_spectral = struct
  let weight_class w = int_of_float (Float.floor (Float.log2 w))

  let reweight_simple g =
    let tbl = Hashtbl.create (Graph.m g) in
    Array.iter
      (fun e ->
        let key = (min e.Graph.u e.Graph.v, max e.Graph.u e.Graph.v) in
        let cur = try Hashtbl.find tbl key with Not_found -> 0. in
        Hashtbl.replace tbl key (cur +. e.Graph.w))
      (Graph.edges g);
    let edge_list =
      Hashtbl.fold (fun (u, v) w acc -> { Graph.u; v; w } :: acc) tbl []
    in
    Graph.create (Graph.n g) edge_list

  let cluster_sparsifier ~on_candidate sub vs =
    let k = Graph.n sub in
    let translate h =
      Array.to_list (Graph.edges h)
      |> List.map (fun e -> { e with Graph.u = vs.(e.Graph.u); v = vs.(e.Graph.v) })
    in
    if k < 2 then []
    else if Graph.m sub <= 2 * k then translate sub
    else begin
      let candidate = Sparsify.Product_demand.sparse sub in
      on_candidate sub candidate;
      if Graph.m candidate < Graph.m sub then translate candidate
      else translate sub
    end

  let sparsify ?(on_candidate = fun _ _ -> ()) ?(phi = 0.05) ?(gamma = 0.25)
      ?max_levels ?model g =
    let model =
      match model with Some m -> m | None -> Runtime.Model.default ()
    in
    let n = Graph.n g in
    let m = Graph.m g in
    let max_levels =
      match max_levels with
      | Some k -> k
      | None -> (4 * Runtime.Cost.log2_ceil (max m 2)) + 4
    in
    let class_tbl = Hashtbl.create 8 in
    Array.iteri
      (fun id e ->
        let c = weight_class e.Graph.w in
        let cur = try Hashtbl.find class_tbl c with Not_found -> [] in
        Hashtbl.replace class_tbl c (id :: cur))
      (Graph.edges g);
    let class_list =
      Hashtbl.fold (fun c ids acc -> (c, List.rev ids) :: acc) class_tbl []
      |> List.sort compare
    in
    let ledger = Runtime.Cost.create () in
    let max_level_used = ref 0 in
    let sparsifier_edges = ref [] in
    List.iter
      (fun (_c, ids) ->
        let current = ref (Graph.sub_edges g ids) in
        let level = ref 0 in
        while Graph.m !current > 0 && !level < max_levels do
          incr level;
          max_level_used := max !max_level_used !level;
          let d = Expander.Decomposition.decompose ~phi ~gamma !current in
          let decompose_rounds =
            match model with
            | Runtime.Model.Unicast -> d.Expander.Decomposition.rounds
            | Runtime.Model.Broadcast ->
              Expander.Decomposition.bcast_rounds_formula
                ~n:(Graph.n !current)
          in
          Runtime.Cost.charge ledger ~phase:"decompose"
            (decompose_rounds + Runtime.Cost.broadcast_rounds);
          List.iter
            (fun vs ->
              let sub, _ = Graph.induced !current vs in
              sparsifier_edges :=
                cluster_sparsifier ~on_candidate sub vs
                @ !sparsifier_edges)
            d.Expander.Decomposition.clusters;
          current := Graph.sub_edges !current d.Expander.Decomposition.crossing
        done;
        if Graph.m !current > 0 then
          sparsifier_edges :=
            Array.to_list (Graph.edges !current) @ !sparsifier_edges)
      class_list;
    let h = reweight_simple (Graph.create n !sparsifier_edges) in
    let u = Float.max 1. (Graph.max_weight g) in
    let bits_per_edge =
      (3 * Runtime.Cost.log2_ceil (max n 2))
      + Runtime.Cost.log2_ceil (int_of_float (Float.ceil u) + 1)
    in
    Runtime.Cost.charge ledger ~phase:"gather"
      (match model with
      | Runtime.Model.Unicast ->
        Runtime.Cost.gather_rounds ~n ~m:(Graph.m h) ~bits_per_edge
      | Runtime.Model.Broadcast ->
        Runtime.Cost.bcast_gather_rounds ~n ~m:(Graph.m h) ~bits_per_edge);
    {
      Sparsify.Spectral.sparsifier = h;
      levels = !max_level_used;
      classes = List.length class_list;
      rounds = Runtime.Cost.rounds ledger;
      phase_rounds = Runtime.Cost.phases ledger;
    }
end

(* Everything a result carries, weights by their IEEE bits. *)
let result_bits (r : Sparsify.Spectral.result) =
  ( Graph.n r.Sparsify.Spectral.sparsifier,
    Array.map
      (fun e -> (e.Graph.u, e.Graph.v, Int64.bits_of_float e.Graph.w))
      (Graph.edges r.Sparsify.Spectral.sparsifier),
    ( r.Sparsify.Spectral.levels,
      r.Sparsify.Spectral.classes,
      r.Sparsify.Spectral.rounds,
      r.Sparsify.Spectral.phase_rounds ) )

let shift k g =
  List.map
    (fun e -> { e with Graph.u = e.Graph.u + k; v = e.Graph.v + k })
    (Array.to_list (Graph.edges g))

(* Degenerate inputs, each with the sparsifier fingerprint
   ([Test_expander.fnv_sparsifier]: edge bits, levels, rounds) recorded
   before candidates were counted first; each passes
   [Fault.Check.sparsifier]. The isolated vertex is vertex 0, so the big
   cluster is renumbered and is not the whole graph. *)
let degenerate_cases =
  [
    ("n = 1", 0x07295d91aa94b524L, fun () -> Graph.create 1 []);
    ( "n = 2",
      0x83a8be31ef880932L,
      fun () -> Graph.create 2 [ { Graph.u = 0; v = 1; w = 3. } ] );
    ("no edges", 0x01d0aaab079e74a3L, fun () -> Graph.create 6 []);
    ( "disconnected",
      0xf6cd2e627282b9adL,
      fun () ->
        let a = Graph_gen.connected_gnp ~seed:7L 20 0.4
        and b = Graph_gen.connected_gnp ~seed:8L 15 0.5 in
        Graph.create 35 (Array.to_list (Graph.edges a) @ shift 20 b) );
    ( "multi-edges",
      0x9d03db8681e15338L,
      fun () ->
        let g = Graph_gen.weighted_gnp ~seed:9L 30 0.4 4 in
        Graph.create 30
          (Array.to_list (Graph.edges g)
          @ List.map
              (fun e -> { e with Graph.w = 3. *. e.Graph.w })
              (Array.to_list (Graph.edges g))) );
    ( "isolated vertex 0 plus G(40, 0.4)",
      0x889b2a11f7fc8781L,
      fun () ->
        Graph.create 41 (shift 1 (Graph_gen.connected_gnp ~seed:10L 40 0.4)) );
    (* 33 vertices: a stand-in for the 32-vertex cluster takes its
       circulant degree from ⌈log₂ 32⌉, one less than the whole graph's. *)
    ( "isolated vertex 0 plus G(32, 0.5)",
      0xcdc0ef041f7423d8L,
      fun () ->
        Graph.create 33 (shift 1 (Graph_gen.connected_gnp ~seed:12L 32 0.5)) );
    ( "weights 1 and 2^40",
      0xbc76f894d099b413L,
      fun () ->
        Graph.map_weights
          (fun e -> if (e.Graph.u + e.Graph.v) land 1 = 0 then 1. else 0x1p40)
          (Graph_gen.connected_gnp ~seed:11L 50 0.3) );
  ]

let test_degenerate_inputs_pinned () =
  List.iter
    (fun (name, expected, g) ->
      let g = g () in
      let r = Sparsify.Spectral.sparsify ~model:Runtime.Model.Unicast g in
      Alcotest.(check string) (name ^ ": certified") "pass"
        (Fault.Check.to_string
           (Fault.Check.sparsifier g r.Sparsify.Spectral.sparsifier));
      Alcotest.(check string) (name ^ ": fingerprint")
        (Printf.sprintf "%016Lx" expected)
        (Printf.sprintf "%016Lx" (Test_expander.fnv_sparsifier r)))
    degenerate_cases

(* Weight scales at the ends of the float range. In G(60, 0.5) with
   weights 1..8 no cluster's stand-in is smaller than the cluster; one
   built regardless comes back empty at 1e-120 and 1e200. K_40 is one
   cluster whose 200-pair stand-in beats its 780 edges, so only the
   wholeness test refuses it: its pair weights underflow to zero at
   1e-120, overflow to infinity at 1e120, and are not numbers at 1e200.
   At 1e100 they are finite and the stand-in is kept. *)
let test_scaled_weights_stay_certified () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun s ->
          let gs = Graph.scale_weights s g in
          List.iter
            (fun (entry, h) ->
              Alcotest.(check string)
                (Printf.sprintf "%s of %s at weight scale %g" entry name s)
                "pass"
                (Fault.Check.to_string (Fault.Check.sparsifier gs h)))
            [
              ( "Spectral.sparsify",
                (Sparsify.Spectral.sparsify gs).Sparsify.Spectral.sparsifier );
              ( "Core.spectral_sparsifier",
                (Core.spectral_sparsifier gs).Sparsify.Spectral.sparsifier );
            ])
        [ 1e-120; 1e100; 1e120; 1e200 ])
    [
      ("G(60, 0.5)", Graph_gen.weighted_gnp ~seed:5L 60 0.5 8);
      ("K_40", Graph_gen.complete 40);
    ]

(* Random multigraphs for the count differential: repeated pairs, isolated
   vertices, and weights log-uniform in [1e-6, 2^40], which scatter the
   vertices over many degree classes, often of one vertex. *)
let random_multigraph rng =
  let n = 2 + Prng.int rng 39 in
  let weight () = 1e-6 *. Float.pow 2. (Prng.float rng 60.) in
  let uniform = Prng.bool rng in
  let edges =
    List.init (Prng.int rng (4 * n)) (fun _ ->
        let u = Prng.int rng n in
        let v = (u + 1 + Prng.int rng (n - 1)) mod n in
        { Graph.u; v; w = (if uniform then 1. else weight ()) })
  in
  Graph.create n edges

let test_edge_count_exact () =
  let rng = Prng.create 0xc0a7L in
  let graphs = 1200 in
  let mismatches = ref [] in
  for i = 1 to graphs do
    let g = random_multigraph rng in
    let counted = Sparsify.Product_demand.edge_count g in
    let built = Graph.m (Sparsify.Product_demand.sparse g) in
    if counted <> built then
      mismatches :=
        Printf.sprintf "graph %d (n=%d m=%d): counted %d, built %d" i
          (Graph.n g) (Graph.m g) counted built
        :: !mismatches
  done;
  Alcotest.(check (list string))
    (Printf.sprintf "count = Graph.m (sparse g) on %d graphs" graphs)
    [] (List.rev !mismatches)

let test_sparsify_equals_seed () =
  let graphs =
    List.map (fun (name, _, g) -> (name, g ())) degenerate_cases
    @ [
        ("connected_gnp 60/0.3", Graph_gen.connected_gnp ~seed:13L 60 0.3);
        ("weighted_gnp 70/0.4/64", Graph_gen.weighted_gnp ~seed:15L 70 0.4 64);
        ("expander 64/8", Graph_gen.expander 64 8);
        ("barbell 12", Graph_gen.barbell 12);
        ("grid 6x9", Graph_gen.grid 6 9);
        ( "planted_partition 60/0.5/0.02",
          Graph_gen.planted_partition ~seed:21L 60 0.5 0.02 );
        ("complete 30", Graph_gen.complete 30);
      ]
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun model ->
          Alcotest.(check bool) name true
            (result_bits (Seed_spectral.sparsify ~model g)
            = result_bits (Sparsify.Spectral.sparsify ~model g)))
        [ Runtime.Model.Unicast; Runtime.Model.Broadcast ])
    graphs

(* perfbench's solve-cold fleet for [seed] (24 weighted G(n, 0.3) graphs,
   n from 128 to 192, weights 1..8), after the solver's weight rounding
   to multiples of eps = 1e-6: the graphs Theorem 1.1's solver sparsifies. *)
let solve_cold_fleet seed =
  List.init 24 (fun i ->
      let n = 128 + (64 * i / 23) in
      Graph.map_weights
        (fun e -> 1e-6 *. Float.max 1. (Float.round (e.Graph.w /. 1e-6)))
        (Graph_gen.weighted_gnp ~seed:(Int64.of_int ((seed * 24) + i)) n 0.3 8))

(* On the fleets of seeds 1-4: the sparsifier equals the seed's bit for
   bit, every candidate the seed built has its counted size, and
   [sparse_below] keeps it exactly when the seed did. *)
let test_solve_cold_fleets_equal_seed () =
  let candidates = ref 0 and kept = ref 0 and wrong = ref [] in
  List.iter
    (fun seed ->
      List.iteri
        (fun i g ->
          let on_candidate sub candidate =
            incr candidates;
            let limit = Graph.m sub in
            let counted = Sparsify.Product_demand.edge_count sub in
            let keeps = Sparsify.Product_demand.sparse_below ~limit sub in
            let seed_keeps = Graph.m candidate < limit in
            if seed_keeps then incr kept;
            if counted <> Graph.m candidate || seed_keeps <> Option.is_some keeps
            then
              wrong :=
                Printf.sprintf "seed %d graph %d: counted %d, built %d, cluster %d"
                  seed i counted (Graph.m candidate) (Graph.m sub)
                :: !wrong
          in
          let expected = Seed_spectral.sparsify ~on_candidate g in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d graph %d: sparsifier bits" seed i)
            true
            (result_bits expected = result_bits (Sparsify.Spectral.sparsify g)))
        (solve_cold_fleet seed))
    [ 1; 2; 3; 4 ];
  Alcotest.(check (list string))
    (Printf.sprintf "keep/discard decisions (%d of %d candidates kept)" !kept
       !candidates)
    [] (List.rev !wrong);
  Alcotest.(check bool) "both decisions occur" true
    (!kept > 0 && !kept < !candidates)

let suite =
  suite
  @ [
      Alcotest.test_case "sparsify degenerate inputs pinned" `Quick
        test_degenerate_inputs_pinned;
      Alcotest.test_case "sparsify scaled weights certified" `Quick
        test_scaled_weights_stay_certified;
      Alcotest.test_case "product demand edge count exact" `Quick
        test_edge_count_exact;
      Alcotest.test_case "sparsify equals seed" `Quick test_sparsify_equals_seed;
      Alcotest.test_case "sparsify equals seed on solve-cold fleets" `Slow
        test_solve_cold_fleets_equal_seed;
    ]
