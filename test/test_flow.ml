(* Tests for the flow stack: Dinic oracle, Ford–Fulkerson, trivial baseline,
   electrical flows, decomposition, flow rounding, and the Theorem 1.2
   max-flow pipeline. *)

module Graph_gen = Gen

let arc src dst cap cost = { Digraph.src; dst; cap; cost }

(* The classic CLRS example: max flow 23. *)
let clrs () =
  Digraph.create 6
    [
      arc 0 1 16 0; arc 0 2 13 0; arc 1 2 10 0; arc 2 1 4 0;
      arc 1 3 12 0; arc 3 2 9 0; arc 2 4 14 0; arc 4 3 7 0;
      arc 3 5 20 0; arc 4 5 4 0;
    ]

let diamond () =
  Digraph.create 4
    [ arc 0 1 1 0; arc 0 2 1 0; arc 1 3 1 0; arc 2 3 1 0 ]

let test_dinic_clrs () =
  let g = clrs () in
  let f, v = Dinic.max_flow g ~s:0 ~t:5 in
  Alcotest.(check int) "CLRS value" 23 v;
  Alcotest.(check bool) "feasible" true (Flow.is_feasible g ~s:0 ~t:5 ~f);
  Alcotest.(check (float 1e-9)) "value matches flow" 23. (Flow.value g ~s:0 ~f)

let test_dinic_disconnected () =
  let g = Digraph.create 4 [ arc 0 1 5 0; arc 2 3 5 0 ] in
  Alcotest.(check int) "no path" 0 (Dinic.max_flow_value g ~s:0 ~t:3)

let test_dinic_min_cut () =
  let g = diamond () in
  let cut = Dinic.min_cut g ~s:0 ~t:3 in
  Alcotest.(check bool) "s inside" true cut.(0);
  Alcotest.(check bool) "t outside" false cut.(3)

let test_ff_matches_dinic () =
  List.iter
    (fun seed ->
      let g = Graph_gen.random_network ~seed:(Int64.of_int seed) 15 40 8 in
      let r = Ford_fulkerson.max_flow g ~s:0 ~t:14 in
      let expect = Dinic.max_flow_value g ~s:0 ~t:14 in
      Alcotest.(check int) (Printf.sprintf "seed %d" seed) expect
        r.Ford_fulkerson.value;
      Alcotest.(check bool) "feasible" true
        (Flow.is_feasible g ~s:0 ~t:14 ~f:r.Ford_fulkerson.f))
    [ 1; 2; 3; 4; 5 ]

let test_ff_round_charging () =
  let g = Graph_gen.layered_network ~seed:3L 3 4 6 in
  let r = Ford_fulkerson.max_flow g ~s:0 ~t:(Digraph.n g - 1) in
  Alcotest.(check bool) "rounds = (iters+1)·n^0.158" true
    (r.Ford_fulkerson.rounds
    = (r.Ford_fulkerson.iterations + 1)
      * Runtime.Cost.apsp_rounds (Digraph.n g))

let test_trivial_baseline () =
  let g = clrs () in
  let r = Trivial.max_flow g ~s:0 ~t:5 in
  Alcotest.(check int) "value" 23 r.Trivial.value;
  Alcotest.(check bool) "rounds positive" true (r.Trivial.rounds > 0)

(* ------------------------------------------------------------- Electrical *)

let test_electrical_series () =
  (* Two unit resistors in series: effective resistance 2. *)
  let g = Graph_gen.path 3 in
  Alcotest.(check (float 1e-8)) "series" 2.
    (Electrical.effective_resistance g 0 2)

let test_electrical_parallel () =
  (* Two parallel unit edges: 1/2. *)
  let g =
    Graph.create 2
      [ { Graph.u = 0; v = 1; w = 1. }; { Graph.u = 0; v = 1; w = 1. } ]
  in
  Alcotest.(check (float 1e-8)) "parallel" 0.5
    (Electrical.effective_resistance g 0 1)

let test_electrical_flow_conserves () =
  let g = Graph_gen.connected_gnp ~seed:31L 20 0.3 in
  let b = Linalg.Vec.sub (Linalg.Vec.basis 20 0) (Linalg.Vec.basis 20 19) in
  let r =
    Electrical.compute ~support:g ~resistance:(fun _ -> 1.) ~b ()
  in
  (* Net flow out of 0 is 1; conservation elsewhere. *)
  let ex = Array.make 20 0. in
  Array.iteri
    (fun id e ->
      ex.(e.Graph.u) <- ex.(e.Graph.u) -. r.Electrical.flow.(id);
      ex.(e.Graph.v) <- ex.(e.Graph.v) +. r.Electrical.flow.(id))
    (Graph.edges g);
  Alcotest.(check (float 1e-7)) "unit out of source" (-1.) ex.(0);
  for v = 1 to 18 do
    Alcotest.(check (float 1e-7)) "conserved" 0. ex.(v)
  done

let test_electrical_energy_thomson () =
  (* Electrical flow minimizes energy: energy = effective resistance for a
     unit demand, and is ≤ energy of any other unit flow. *)
  let g = Graph_gen.cycle 4 in
  let b = Linalg.Vec.sub (Linalg.Vec.basis 4 0) (Linalg.Vec.basis 4 2) in
  let r = Electrical.compute ~support:g ~resistance:(fun _ -> 1.) ~b () in
  (* Two paths of length 2 in parallel: R_eff = 1. *)
  Alcotest.(check (float 1e-8)) "energy = R_eff" 1. r.Electrical.energy

(* -------------------------------------------------------------- Decompose *)

let test_decompose_roundtrip () =
  let g = clrs () in
  let f, v = Dinic.max_flow g ~s:0 ~t:5 in
  let items = Decompose.decompose g ~s:0 ~t:5 f in
  let back = Decompose.accumulate g items in
  Alcotest.(check bool) "accumulates back" true (Linalg.Vec.equal ~eps:1e-6 f back);
  let path_value =
    List.fold_left
      (fun acc item ->
        match item with
        | Decompose.Path { amount; _ } -> acc +. amount
        | Decompose.Cycle _ -> acc)
      0. items
  in
  Alcotest.(check (float 1e-6)) "paths carry the value" (float_of_int v)
    path_value

let test_decompose_quantize () =
  let g = diamond () in
  let f = [| 0.8; 0.55; 0.8; 0.55 |] in
  let items = Decompose.decompose g ~s:0 ~t:3 f in
  let paths = Decompose.quantize_paths ~delta:0.25 items in
  let q = Decompose.accumulate g paths in
  (* Grid conservation and within caps. *)
  Alcotest.(check bool) "feasible" true (Flow.is_feasible g ~s:0 ~t:3 ~f:q);
  Array.iter
    (fun x ->
      Alcotest.(check (float 1e-9)) "grid multiple" 0.
        (Float.abs (x /. 0.25 -. Float.round (x /. 0.25))))
    q

(* ----------------------------------------------------------- FlowRounding *)

let test_rounding_diamond () =
  let g = diamond () in
  (* Half a unit on each path: value 1. Rounding must produce an integral
     flow of value ≥ 1 (= pick one path). *)
  let f = [| 0.5; 0.5; 0.5; 0.5 |] in
  let r = Rounding.Flow_rounding.round g ~s:0 ~t:3 ~delta:0.5 f in
  Alcotest.(check bool) "integral" true (Flow.is_integral r.Rounding.Flow_rounding.f);
  Alcotest.(check bool) "feasible" true
    (Flow.is_feasible g ~s:0 ~t:3 ~f:r.Rounding.Flow_rounding.f);
  Alcotest.(check bool) "value not decreased" true
    (Flow.value g ~s:0 ~f:r.Rounding.Flow_rounding.f >= 1. -. 1e-9)

let test_rounding_respects_costs () =
  (* Two parallel s→t paths, one expensive; fractional flow split evenly;
     the cost-aware rounding must shift to the cheap path. *)
  let g =
    Digraph.create 4
      [ arc 0 1 1 10; arc 1 3 1 10; arc 0 2 1 1; arc 2 3 1 1 ]
  in
  let f = [| 0.5; 0.5; 0.5; 0.5 |] in
  let cost id = float_of_int (Digraph.arc g id).Digraph.cost in
  let r = Rounding.Flow_rounding.round ~cost g ~s:0 ~t:3 ~delta:0.5 f in
  let rf = r.Rounding.Flow_rounding.f in
  Alcotest.(check bool) "integral+feasible" true
    (Flow.is_integral rf && Flow.is_feasible g ~s:0 ~t:3 ~f:rf);
  let new_cost = Flow.cost g rf in
  let old_cost = Flow.cost g f in
  Alcotest.(check bool)
    (Printf.sprintf "cost %g <= %g" new_cost old_cost)
    true (new_cost <= old_cost +. 1e-9);
  (* It must have picked the cheap path. *)
  Alcotest.(check (float 1e-9)) "cheap path used" 1. rf.(2)

let test_rounding_grid_validation () =
  let g = diamond () in
  Alcotest.(check bool) "rejects off-grid" true
    (try
       ignore (Rounding.Flow_rounding.round g ~s:0 ~t:3 ~delta:0.5 [| 0.3; 0.3; 0.3; 0.3 |]);
       false
     with Invalid_argument _ -> true)

let test_rounding_preserves_integral () =
  let g = clrs () in
  let f, _ = Dinic.max_flow g ~s:0 ~t:5 in
  let r = Rounding.Flow_rounding.round g ~s:0 ~t:5 ~delta:0.25 f in
  Alcotest.(check bool) "unchanged" true
    (Linalg.Vec.equal ~eps:1e-9 f r.Rounding.Flow_rounding.f)

(* -------------------------------------------------------------- MaxFlow IPM *)

let check_ipm g ~s ~t =
  let r = Maxflow_ipm.max_flow g ~s ~t in
  let expect = Dinic.max_flow_value g ~s ~t in
  Alcotest.(check int) "matches Dinic" expect r.Maxflow_ipm.value;
  Alcotest.(check bool) "feasible" true
    (Flow.is_feasible g ~s ~t ~f:r.Maxflow_ipm.f);
  Alcotest.(check bool) "integral" true (Flow.is_integral r.Maxflow_ipm.f);
  r

let test_ipm_clrs () = ignore (check_ipm (clrs ()) ~s:0 ~t:5)

let test_ipm_diamond () = ignore (check_ipm (diamond ()) ~s:0 ~t:3)

let test_ipm_layered () =
  List.iter
    (fun seed ->
      let g = Graph_gen.layered_network ~seed:(Int64.of_int seed) 3 4 5 in
      ignore (check_ipm g ~s:0 ~t:(Digraph.n g - 1)))
    [ 1; 2; 3 ]

let test_ipm_random () =
  List.iter
    (fun seed ->
      let g = Graph_gen.random_network ~seed:(Int64.of_int seed) 12 30 6 in
      ignore (check_ipm g ~s:0 ~t:11))
    [ 4; 5; 6 ]

let test_ipm_unit_bipartite () =
  let g = Graph_gen.unit_bipartite ~seed:7L 6 0.4 in
  ignore (check_ipm g ~s:0 ~t:(Digraph.n g - 1))

let test_ipm_repair_small_on_layered () =
  (* On layered networks the relaxation is exact, so the repair phase should
     need few augmentations (the paper's count is 1). *)
  let g = Graph_gen.layered_network ~seed:11L 4 4 4 in
  let r = check_ipm g ~s:0 ~t:(Digraph.n g - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "repairs=%d small" r.Maxflow_ipm.repair_augmentations)
    true
    (r.Maxflow_ipm.repair_augmentations
    <= max 2 (r.Maxflow_ipm.value / 2))

let test_ipm_phase_accounting () =
  let g = Graph_gen.layered_network ~seed:13L 3 3 4 in
  let r = Maxflow_ipm.max_flow g ~s:0 ~t:(Digraph.n g - 1) in
  let total =
    List.fold_left (fun a (_, x) -> a + x) 0 r.Maxflow_ipm.phase_rounds
  in
  Alcotest.(check int) "phases sum" r.Maxflow_ipm.rounds total;
  Alcotest.(check bool) "has ipm phase" true
    (List.mem_assoc "ipm" r.Maxflow_ipm.phase_rounds)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"ipm max flow = dinic (random networks)" ~count:10
      small_nat
      (fun seed ->
        let g =
          Graph_gen.random_network ~seed:(Int64.of_int (seed + 19)) 10 25 5
        in
        let r = Maxflow_ipm.max_flow g ~s:0 ~t:9 in
        r.Maxflow_ipm.value = Dinic.max_flow_value g ~s:0 ~t:9
        && Flow.is_feasible g ~s:0 ~t:9 ~f:r.Maxflow_ipm.f);
    Test.make ~name:"rounding: integral, feasible, value kept" ~count:20
      small_nat
      (fun seed ->
        let g =
          Graph_gen.layered_network ~seed:(Int64.of_int (seed + 23)) 3 3 4
        in
        let t = Digraph.n g - 1 in
        let f, _ = Dinic.max_flow g ~s:0 ~t in
        (* Make it fractional: scale down to 3/4 then re-quantize. *)
        let frac = Array.map (fun x -> 0.75 *. x) f in
        let items = Decompose.decompose g ~s:0 ~t frac in
        let paths = Decompose.quantize_paths ~delta:0.25 items in
        let q = Decompose.accumulate g paths in
        let v0 = Flow.value g ~s:0 ~f:q in
        let r = Rounding.Flow_rounding.round g ~s:0 ~t ~delta:0.25 q in
        Flow.is_integral r.Rounding.Flow_rounding.f
        && Flow.is_feasible g ~s:0 ~t ~f:r.Rounding.Flow_rounding.f
        && Flow.value g ~s:0 ~f:r.Rounding.Flow_rounding.f >= v0 -. 1e-9);
  ]

let suite =
  [
    Alcotest.test_case "dinic CLRS" `Quick test_dinic_clrs;
    Alcotest.test_case "dinic disconnected" `Quick test_dinic_disconnected;
    Alcotest.test_case "dinic min cut" `Quick test_dinic_min_cut;
    Alcotest.test_case "ford-fulkerson = dinic" `Quick test_ff_matches_dinic;
    Alcotest.test_case "ford-fulkerson round charge" `Quick
      test_ff_round_charging;
    Alcotest.test_case "trivial baseline" `Quick test_trivial_baseline;
    Alcotest.test_case "electrical series" `Quick test_electrical_series;
    Alcotest.test_case "electrical parallel" `Quick test_electrical_parallel;
    Alcotest.test_case "electrical conserves" `Quick
      test_electrical_flow_conserves;
    Alcotest.test_case "electrical energy" `Quick test_electrical_energy_thomson;
    Alcotest.test_case "decompose roundtrip" `Quick test_decompose_roundtrip;
    Alcotest.test_case "decompose quantize" `Quick test_decompose_quantize;
    Alcotest.test_case "rounding diamond" `Quick test_rounding_diamond;
    Alcotest.test_case "rounding respects costs" `Quick
      test_rounding_respects_costs;
    Alcotest.test_case "rounding grid validation" `Quick
      test_rounding_grid_validation;
    Alcotest.test_case "rounding preserves integral" `Quick
      test_rounding_preserves_integral;
    Alcotest.test_case "ipm CLRS" `Quick test_ipm_clrs;
    Alcotest.test_case "ipm diamond" `Quick test_ipm_diamond;
    Alcotest.test_case "ipm layered" `Quick test_ipm_layered;
    Alcotest.test_case "ipm random" `Quick test_ipm_random;
    Alcotest.test_case "ipm bipartite" `Quick test_ipm_unit_bipartite;
    Alcotest.test_case "ipm repair small on layered" `Quick
      test_ipm_repair_small_on_layered;
    Alcotest.test_case "ipm phase accounting" `Quick test_ipm_phase_accounting;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests

(* --------------------------------------------------- additional coverage *)

let test_flow_helpers () =
  let g = diamond () in
  let f = [| 1.; 0.5; 1.; 0.5 |] in
  Alcotest.(check (float 1e-12)) "value" 1.5 (Flow.value g ~s:0 ~f);
  Alcotest.(check (float 1e-12)) "conservation ok" 0.
    (Flow.conservation_violation g ~s:0 ~t:3 ~f);
  Alcotest.(check bool) "not integral" false (Flow.is_integral f);
  Alcotest.(check bool) "integral snapshot" true
    (Flow.round_to_int f = [| 1; 1; 1; 1 |] || Flow.round_to_int f = [| 1; 0; 1; 0 |])

let test_flow_capacity_violation () =
  let g = diamond () in
  Alcotest.(check (float 1e-12)) "over cap by 1" 1.
    (Flow.capacity_violation g ~f:[| 2.; 0.; 2.; 0. |]);
  Alcotest.(check (float 1e-12)) "negative flow" 0.5
    (Flow.capacity_violation g ~f:[| -0.5; 0.; 0.; 0. |])

let test_zero_capacity_arcs () =
  let g =
    Digraph.create 3 [ arc 0 1 0 0; arc 0 2 3 0; arc 2 1 3 0 ]
  in
  let r = Maxflow_ipm.max_flow g ~s:0 ~t:1 in
  Alcotest.(check int) "routes around the dead arc" 3 r.Maxflow_ipm.value;
  Alcotest.(check (float 1e-9)) "dead arc unused" 0. r.Maxflow_ipm.f.(0)

let test_single_arc_network () =
  let g = Digraph.create 2 [ arc 0 1 7 0 ] in
  let r = Maxflow_ipm.max_flow g ~s:0 ~t:1 in
  Alcotest.(check int) "value 7" 7 r.Maxflow_ipm.value

let test_disconnected_st () =
  let g = Digraph.create 4 [ arc 0 1 5 0; arc 2 3 5 0 ] in
  let r = Maxflow_ipm.max_flow g ~s:0 ~t:3 in
  Alcotest.(check int) "no flow" 0 r.Maxflow_ipm.value

let test_antiparallel_arcs () =
  (* The symmetrized relaxation must not confuse antiparallel pairs. *)
  let g =
    Digraph.create 3
      [ arc 0 1 2 0; arc 1 0 5 0; arc 1 2 2 0; arc 2 1 5 0 ]
  in
  let r = Maxflow_ipm.max_flow g ~s:0 ~t:2 in
  Alcotest.(check int) "exact" (Dinic.max_flow_value g ~s:0 ~t:2)
    r.Maxflow_ipm.value

let test_decompose_pure_cycle () =
  let g =
    Digraph.create 3 [ arc 0 1 1 0; arc 1 2 1 0; arc 2 0 1 0 ]
  in
  (* A circulation with no s-t component. *)
  let items = Decompose.decompose g ~s:0 ~t:2 [| 1.; 1.; 1. |] in
  let cycles =
    List.filter (function Decompose.Cycle _ -> true | _ -> false) items
  in
  Alcotest.(check bool) "found the cycle" true (List.length cycles >= 1)

let test_electrical_solver_rounds_reported () =
  let g = Graph_gen.connected_gnp ~seed:46L 15 0.4 in
  let b = Linalg.Vec.sub (Linalg.Vec.basis 15 0) (Linalg.Vec.basis 15 14) in
  let r =
    Electrical.compute ~solver:(Electrical.Cg 1e-10) ~support:g
      ~resistance:(fun _ -> 1.) ~b ()
  in
  Alcotest.(check bool) "rounds = iterations" true
    (r.Electrical.solver_rounds = r.Electrical.solver_iterations)

(* Two unit edges, 0–1 and 2–3: R(0,1) = R(2,3) = 1, and no path joins
   0 and 2. The solvers used to answer R(0,2) with 2 (CG), 4.9996e11
   (Exact) or a "graph must be connected" error (Theorem 1.1), and a
   vertex out of range with a bare index error or, for (7,7), with 0.
   Theorem 1.1 also refused R(0,1), as its solver needs one component;
   it now solves on the component that carries the demand. *)
let test_effective_resistance_components () =
  let g =
    Graph.create 4
      [ { Graph.u = 0; v = 1; w = 1. }; { Graph.u = 2; v = 3; w = 1. } ]
  in
  let solvers =
    [
      ("cg", Electrical.Cg 1e-10, 1e-9);
      ("exact", Electrical.Exact, 1e-9);
      ("theorem 1.1", Electrical.Theorem_1_1 1e-6, 1e-5);
    ]
  in
  List.iter
    (fun (name, solver, tol) ->
      Alcotest.(check (float tol)) (name ^ ": R(0,1)") 1.
        (Electrical.effective_resistance ~solver g 0 1);
      Alcotest.(check (float tol)) (name ^ ": R(2,3)") 1.
        (Electrical.effective_resistance ~solver g 2 3);
      Alcotest.(check (float 0.)) (name ^ ": R(0,2)") infinity
        (Electrical.effective_resistance ~solver g 0 2))
    solvers;
  (* On its component, the potentials sum to 0 over all four vertices. *)
  let r =
    Electrical.compute ~solver:(Electrical.Theorem_1_1 1e-6) ~support:g
      ~resistance:(fun _ -> 1.)
      ~b:[| 1.; -1.; 0.; 0. |] ()
  in
  Alcotest.(check (float 1e-12)) "theorem 1.1: potentials centered" 0.
    (Array.fold_left ( +. ) 0. r.Electrical.potentials);
  Alcotest.(check (float 1e-5)) "theorem 1.1: energy" 1. r.Electrical.energy;
  Alcotest.check_raises "theorem 1.1: b on two components"
    (Invalid_argument
       "Electrical.compute: b is nonzero on two components of the support; \
        Theorem_1_1 solves on one")
    (fun () ->
      ignore
        (Electrical.compute ~solver:(Electrical.Theorem_1_1 1e-6) ~support:g
           ~resistance:(fun _ -> 1.)
           ~b:[| 1.; 0.; -1.; 0. |] ()));
  Alcotest.(check (float 0.)) "Core: R(0,2)" infinity
    (Core.effective_resistance g 0 2);
  let out_of_range what u v =
    Alcotest.check_raises what
      (Invalid_argument
         "Electrical.effective_resistance: vertex 7 out of range (n = 4)")
      (fun () -> ignore (Electrical.effective_resistance g u v))
  in
  out_of_range "R(0,7)" 0 7;
  out_of_range "R(7,7)" 7 7;
  out_of_range "R(7,0)" 7 0

(* A verbatim copy of the CG backend's former path, CG's grounded
   wrapper over the allocating [Graph.apply_laplacian]: center b, run CG
   with a fresh vector copied in per matvec, center x. The workspace
   backend must match it bit for bit: potentials, flow, energy, rounds. *)
let grounded_cg_reference ~tol ~support ~resistance ~b =
  let open Linalg in
  let cg =
    Graph.create (Graph.n support)
      (Array.to_list (Graph.edges support)
      |> List.mapi (fun id e -> { e with Graph.w = 1. /. resistance id }))
  in
  let b = Vec.center (Vec.center b) in
  let ws = Cg.Workspace.create (Vec.dim b) in
  let apply = Graph.apply_laplacian cg in
  let st =
    Cg.solve_into ~tol ws (fun src dst -> Vec.copy_into (apply src) dst) b
  in
  let phi = Vec.center ws.Cg.Workspace.x in
  let flow =
    Array.mapi
      (fun id e -> (phi.(e.Graph.u) -. phi.(e.Graph.v)) /. resistance id)
      (Graph.edges support)
  in
  let energy = ref 0. in
  Array.iteri
    (fun id f -> energy := !energy +. (resistance id *. f *. f))
    flow;
  (phi, flow, !energy, st.Cg.iterations)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let test_electrical_cg_matches_grounded_reference () =
  List.iter
    (fun (name, support, resistance) ->
      let n = Graph.n support in
      List.iter
        (fun (tag, b) ->
          let what = Printf.sprintf "%s, %s" name tag in
          let phi, flow, energy, iters =
            grounded_cg_reference ~tol:1e-10 ~support ~resistance ~b
          in
          let r =
            Electrical.compute ~solver:(Electrical.Cg 1e-10) ~support
              ~resistance ~b ()
          in
          Alcotest.(check bool) (what ^ ": potentials") true
            (same_bits phi r.Electrical.potentials);
          Alcotest.(check bool) (what ^ ": flow") true
            (same_bits flow r.Electrical.flow);
          Alcotest.(check bool) (what ^ ": energy") true
            (Int64.equal (Int64.bits_of_float energy)
               (Int64.bits_of_float r.Electrical.energy));
          Alcotest.(check int) (what ^ ": iterations") iters
            r.Electrical.solver_iterations;
          Alcotest.(check int) (what ^ ": rounds")
            (iters * Runtime.Cost.matvec_rounds)
            r.Electrical.solver_rounds)
        [
          ( "unit s-t demand",
            Linalg.Vec.sub (Linalg.Vec.basis n 0) (Linalg.Vec.basis n (n - 1)) );
          ( "spread demand",
            Linalg.Vec.init n (fun i -> float_of_int ((i * 7) mod 5) -. 2.) );
        ])
    [
      ( "weighted_gnp 30",
        Graph_gen.weighted_gnp ~seed:3L 30 0.2 8,
        fun id -> 1. /. float_of_int (1 + (id mod 8)) );
      ("grid 5x6", Graph_gen.grid 5 6, fun id -> 0.25 +. float_of_int (id mod 7));
      ( "expander 24",
        Graph_gen.expander 24 4,
        fun id -> Float.ldexp 1. ((id mod 11) - 5) );
      ("barbell 6", Graph_gen.barbell 6, fun id -> 1. +. (0.37 *. float_of_int id));
    ]

(* The inputs [compute] refuses: a demand of the wrong length (Exact used
   to answer a 5-entry b on 4 vertices, and Theorem_1_1 on a disconnected
   support a 3- or 5-entry one), r <= 0 by name, and a conductance 1/r
   that is not finite and positive with the edge named. *)
let test_electrical_refuses_bad_inputs () =
  let g = Graph_gen.cycle 4 in
  let b = Linalg.Vec.sub (Linalg.Vec.basis 4 0) (Linalg.Vec.basis 4 2) in
  let with_r2 r id = if id = 2 then r else 1. in
  let disconnected =
    Graph.create 4
      [ { Graph.u = 0; v = 1; w = 1. }; { Graph.u = 2; v = 3; w = 1. } ]
  in
  List.iter
    (fun solver ->
      List.iter
        (fun (support, len) ->
          Alcotest.check_raises
            (Printf.sprintf "b of length %d" len)
            (Invalid_argument
               (Printf.sprintf
                  "Electrical.compute: b has %d entries but the support has \
                   4 vertices"
                  len))
            (fun () ->
              ignore
                (Electrical.compute ~solver ~support
                   ~resistance:(fun _ -> 1.)
                   ~b:(Array.init len (fun i -> if i = 0 then 1. else 0.))
                   ())))
        [ (g, 3); (g, 5); (disconnected, 3); (disconnected, 5) ];
      Alcotest.check_raises "r = 0"
        (Invalid_argument "Electrical: non-positive resistance") (fun () ->
          ignore
            (Electrical.compute ~solver ~support:g ~resistance:(with_r2 0.)
               ~b ()));
      Alcotest.check_raises "r = 1e-320"
        (Invalid_argument
           "Electrical: conductance inf of edge 2 (2,3) is not finite and \
            positive") (fun () ->
          ignore
            (Electrical.compute ~solver ~support:g
               ~resistance:(with_r2 1e-320) ~b ()));
      Alcotest.check_raises "r = nan"
        (Invalid_argument
           "Electrical: conductance nan of edge 2 (2,3) is not finite and \
            positive") (fun () ->
          ignore
            (Electrical.compute ~solver ~support:g
               ~resistance:(with_r2 Float.nan) ~b ())))
    [ Electrical.Cg 1e-10; Electrical.Exact; Electrical.Theorem_1_1 1e-6 ]

(* One CG solve on the support of random_mcf 40/150/10 (seed 3: 40
   vertices, 189 edges, 33 CG iterations) with non-uniform resistances.
   Built through a conductance Graph.t per solve, it allocated 6,440 minor
   words; over the conductance array it allocates about 1,850. The bound
   is half the former count. Bytecode boxes every float, so native only. *)
let test_electrical_cg_allocation_bounded () =
  if Sys.backend_type = Sys.Native then begin
    let g, _ = Graph_gen.random_mcf ~seed:3L 40 150 10 in
    let support = Digraph.underlying g in
    let n = Graph.n support in
    let resistance id = 0.5 +. float_of_int ((id * 5) mod 9) in
    let b = Linalg.Vec.init n (fun i -> float_of_int ((i * 7) mod 5) -. 2.) in
    let solve () = Electrical.compute ~support ~resistance ~b () in
    let r = solve () in
    Alcotest.(check int) "CG iterations" 33 r.Electrical.solver_iterations;
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (solve ()));
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check bool)
      (Printf.sprintf "one solve allocates %.0f <= 3220 minor words" words)
      true (words <= 3220.)
  end

let more_flow_qcheck =
  let open QCheck in
  [
    Test.make ~name:"excess sums to zero" ~count:40 small_nat
      (fun seed ->
        let g = Graph_gen.random_network ~seed:(Int64.of_int (seed + 400)) 10 20 5 in
        let f, _ = Dinic.max_flow g ~s:0 ~t:9 in
        Float.abs (Array.fold_left ( +. ) 0. (Flow.excess g f)) < 1e-9);
    Test.make ~name:"dinic flow feasible and maximal" ~count:40 small_nat
      (fun seed ->
        let g = Graph_gen.random_network ~seed:(Int64.of_int (seed + 401)) 12 28 6 in
        let f, v = Dinic.max_flow g ~s:0 ~t:11 in
        Flow.is_feasible g ~s:0 ~t:11 ~f
        && int_of_float (Float.round (Flow.value g ~s:0 ~f)) = v);
    Test.make ~name:"min cut value = max flow value" ~count:40 small_nat
      (fun seed ->
        let g = Graph_gen.random_network ~seed:(Int64.of_int (seed + 402)) 10 24 5 in
        let v = Dinic.max_flow_value g ~s:0 ~t:9 in
        let cut = Dinic.min_cut g ~s:0 ~t:9 in
        let cut_cap =
          Array.to_list (Digraph.arcs g)
          |> List.fold_left
               (fun acc a ->
                 if cut.(a.Digraph.src) && not cut.(a.Digraph.dst) then
                   acc + a.Digraph.cap
                 else acc)
               0
        in
        cut_cap = v);
    Test.make ~name:"decompose reconstructs dinic flows" ~count:30 small_nat
      (fun seed ->
        let g = Graph_gen.random_network ~seed:(Int64.of_int (seed + 403)) 10 22 4 in
        let f, _ = Dinic.max_flow g ~s:0 ~t:9 in
        let back = Decompose.accumulate g (Decompose.decompose g ~s:0 ~t:9 f) in
        Linalg.Vec.equal ~eps:1e-6 f back);
  ]

let suite =
  suite
  @ [
      Alcotest.test_case "flow helpers" `Quick test_flow_helpers;
      Alcotest.test_case "capacity violation" `Quick
        test_flow_capacity_violation;
      Alcotest.test_case "zero-capacity arcs" `Quick test_zero_capacity_arcs;
      Alcotest.test_case "single arc" `Quick test_single_arc_network;
      Alcotest.test_case "disconnected s-t" `Quick test_disconnected_st;
      Alcotest.test_case "antiparallel arcs" `Quick test_antiparallel_arcs;
      Alcotest.test_case "decompose pure cycle" `Quick test_decompose_pure_cycle;
      Alcotest.test_case "electrical rounds reported" `Quick
        test_electrical_solver_rounds_reported;
      Alcotest.test_case "effective resistance across components" `Quick
        test_effective_resistance_components;
      Alcotest.test_case "electrical cg = grounded reference" `Quick
        test_electrical_cg_matches_grounded_reference;
      Alcotest.test_case "electrical refuses bad inputs" `Quick
        test_electrical_refuses_bad_inputs;
      Alcotest.test_case "electrical cg allocation bounded" `Quick
        test_electrical_cg_allocation_bounded;
    ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) more_flow_qcheck

let test_rounding_delta_one () =
  (* Δ = 1: already-integral flows are the only valid input; no levels. *)
  let g = diamond () in
  let f = [| 1.; 0.; 1.; 0. |] in
  let r = Rounding.Flow_rounding.round g ~s:0 ~t:3 ~delta:1. f in
  Alcotest.(check int) "no levels" 0 r.Rounding.Flow_rounding.levels;
  Alcotest.(check bool) "unchanged" true
    (Linalg.Vec.equal f r.Rounding.Flow_rounding.f)

let test_rounding_rejects_negative () =
  let g = diamond () in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Rounding.Flow_rounding.round g ~s:0 ~t:3 ~delta:0.5
            [| -0.5; 0.; 0.; 0. |]);
       false
     with Invalid_argument _ -> true)

let test_chebyshev_convergence_rate () =
  (* Error after k iterations decays at least like the Chebyshev rate
     2·((√κ−1)/(√κ+1))^k on a diagonal system with known spectrum. *)
  let kappa = 25. in
  let n = 6 in
  let diag = Array.init n (fun i -> 1. /. kappa +. (float_of_int i /. float_of_int (n - 1)) *. (1. -. 1. /. kappa)) in
  let apply_a_into v dst = Array.iteri (fun i x -> dst.(i) <- diag.(i) *. x) v in
  let b = Array.make n 1. in
  let xstar = Array.mapi (fun i x -> x /. diag.(i)) b in
  let rate = (sqrt kappa -. 1.) /. (sqrt kappa +. 1.) in
  List.iter
    (fun k ->
      let ws = Linalg.Chebyshev.Workspace.create n in
      let (_ : Linalg.Chebyshev.stats) =
        Linalg.Chebyshev.solve_into ~max_iters:k ~tol:0. ~apply_a_into
          ~solve_b_into:Linalg.Vec.copy_into ~kappa ws b
      in
      let x = ws.Linalg.Chebyshev.Workspace.x in
      let err = Linalg.Vec.dist2 x xstar /. Linalg.Vec.norm2 xstar in
      let bound = 2.5 *. (rate ** float_of_int k) in
      if err > bound then
        Alcotest.failf "after %d iters: err %g > Chebyshev bound %g" k err
          bound)
    [ 4; 8; 16 ]

let suite =
  suite
  @ [
      Alcotest.test_case "rounding delta=1" `Quick test_rounding_delta_one;
      Alcotest.test_case "rounding rejects negative" `Quick
        test_rounding_rejects_negative;
      Alcotest.test_case "chebyshev convergence rate" `Quick
        test_chebyshev_convergence_rate;
    ]

(* A terminal outside [0, n) is a structured error naming the entry point,
   the terminal and n — on the arc-free network too, where nothing would
   otherwise index it. *)
let test_terminals_out_of_range () =
  let raises what expected f =
    match f () with
    | _ -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument msg ->
      Alcotest.(check string) what expected msg
  in
  let g = diamond () and empty = Digraph.create 4 [] in
  List.iter
    (fun (entry, run) ->
      raises (entry ^ " s = -1")
        (entry ^ ": terminal s = -1 is outside [0, 4)")
        (fun () -> run g ~s:(-1) ~t:3);
      raises (entry ^ " t = n")
        (entry ^ ": terminal t = 4 is outside [0, 4)")
        (fun () -> run g ~s:0 ~t:4);
      raises (entry ^ " no arcs, t = 9")
        (entry ^ ": terminal t = 9 is outside [0, 4)")
        (fun () -> run empty ~s:0 ~t:9);
      raises (entry ^ " s = t") (entry ^ ": s = t") (fun () -> run g ~s:1 ~t:1))
    [
      ( "Maxflow_ipm.max_flow",
        fun g ~s ~t -> ignore (Maxflow_ipm.max_flow g ~s ~t) );
      ( "Mcf_ipm.solve_max_flow_min_cost",
        fun g ~s ~t -> ignore (Mcf_ipm.solve_max_flow_min_cost g ~s ~t) );
    ];
  Alcotest.(check int) "in-range terminals on no arcs: value 0" 0
    (Maxflow_ipm.max_flow empty ~s:0 ~t:3).Maxflow_ipm.value

let suite =
  suite
  @ [
      Alcotest.test_case "flow terminals out of range" `Quick
        test_terminals_out_of_range;
    ]
