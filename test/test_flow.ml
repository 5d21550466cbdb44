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

let test_sssp_dijkstra_vs_bellman () =
  let g = Graph_gen.random_network ~seed:44L 15 40 5 in
  let d1, _ = Sssp.dijkstra g ~sources:[ 0 ] () in
  match Sssp.bellman_ford g ~sources:[ 0 ] () with
  | None -> Alcotest.fail "no negative cycles here"
  | Some (d2, _) ->
    Array.iteri
      (fun v x ->
        if Float.abs (x -. d2.(v)) > 1e-9 && x <> d2.(v) then
          Alcotest.failf "distance mismatch at %d: %f vs %f" v x d2.(v))
      d1

let test_sssp_path_reconstruction () =
  let g =
    Digraph.create 4 [ arc 0 1 1 1; arc 1 2 1 1; arc 2 3 1 1; arc 0 3 1 10 ]
  in
  let dist, parent = Sssp.dijkstra g ~sources:[ 0 ] () in
  Alcotest.(check (float 1e-9)) "short way" 3. dist.(3);
  Alcotest.(check (list int)) "path arcs" [ 0; 1; 2 ]
    (Sssp.path_to ~parent g 3)

let test_sssp_multi_source () =
  let g = Digraph.create 4 [ arc 0 2 1 5; arc 1 2 1 1; arc 2 3 1 1 ] in
  let dist, _ = Sssp.dijkstra g ~sources:[ 0; 1 ] () in
  Alcotest.(check (float 1e-9)) "nearest source wins" 2. dist.(3)

let test_sssp_usable_mask () =
  let g = Digraph.create 3 [ arc 0 1 1 1; arc 1 2 1 1; arc 0 2 1 1 ] in
  let dist, _ = Sssp.dijkstra g ~usable:(fun id -> id <> 2) ~sources:[ 0 ] () in
  Alcotest.(check (float 1e-9)) "detour forced" 2. dist.(2)

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
      Alcotest.test_case "dijkstra = bellman-ford" `Quick
        test_sssp_dijkstra_vs_bellman;
      Alcotest.test_case "sssp path reconstruction" `Quick
        test_sssp_path_reconstruction;
      Alcotest.test_case "sssp multi-source" `Quick test_sssp_multi_source;
      Alcotest.test_case "sssp usable mask" `Quick test_sssp_usable_mask;
      Alcotest.test_case "decompose pure cycle" `Quick test_decompose_pure_cycle;
      Alcotest.test_case "electrical rounds reported" `Quick
        test_electrical_solver_rounds_reported;
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
