(* Core's headline entry points on degenerate inputs: each must give a
   structured error or the answer an independent oracle gives (Dinic for
   max flow, successive shortest paths for min-cost flow, Kruskal for the
   MST, the in = out count for Euler), and Lemma 4.2's rounding must keep
   its Theorem 4.1 contract. *)

let arc src dst cap cost = { Digraph.src; dst; cap; cost }

let edge u v w = { Graph.u; v; w }

let raises_invalid what f =
  Alcotest.(check bool) what true
    (match f () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------ max flow *)

let test_max_flow_degenerate () =
  let diamond = Digraph.create 4 [ arc 0 1 1 0; arc 1 3 1 0 ] in
  raises_invalid "s = t" (fun () -> Core.max_flow diamond ~s:2 ~t:2);
  let value g ~s ~t = (Core.max_flow g ~s ~t).Maxflow_ipm.value in
  Alcotest.(check int) "arc-free n = 2" 0
    (value (Digraph.create 2 []) ~s:0 ~t:1);
  let split = Digraph.create 4 [ arc 0 1 3 0; arc 2 3 3 0 ] in
  Alcotest.(check int) "s and t in different components"
    (Dinic.max_flow_value split ~s:0 ~t:3)
    (value split ~s:0 ~t:3);
  Alcotest.(check int) "parallel arcs add up" 7
    (value (Digraph.create 2 [ arc 0 1 3 0; arc 0 1 4 0 ]) ~s:0 ~t:1);
  let big = 1 lsl 40 in
  let wide =
    Digraph.create 4
      [ arc 0 1 big 0; arc 0 2 (big - 1) 0; arc 1 3 (big - 2) 0;
        arc 2 3 big 0; arc 1 2 5 0 ]
  in
  Alcotest.(check int) "capacities of 2^40: Dinic's value"
    (Dinic.max_flow_value wide ~s:0 ~t:3)
    (value wide ~s:0 ~t:3)

(* -------------------------------------------------------- min-cost flow *)

let test_min_cost_flow_degenerate () =
  (match Core.min_cost_flow (Digraph.create 1 []) ~sigma:[| 0 |] with
  | Some r -> Alcotest.(check (float 0.)) "n = 1 costs 0" 0. r.Mcf_ipm.cost
  | None -> Alcotest.fail "n = 1 with zero demand is feasible");
  let split = Digraph.create 4 [ arc 0 1 1 1; arc 2 3 1 1 ] in
  let sigma = [| 1; 0; 0; -1 |] in
  Alcotest.(check bool) "SSP: disconnected demand infeasible" true
    (Mcf_ssp.solve split ~sigma = None);
  Alcotest.(check bool) "disconnected demand gives None" true
    (Core.min_cost_flow split ~sigma = None);
  raises_invalid "wrong sigma length" (fun () ->
      Core.min_cost_flow split ~sigma:[| 1; -1 |]);
  raises_invalid "sigma not summing to 0" (fun () ->
      Core.min_cost_flow split ~sigma:[| 1; 0; 0; 0 |]);
  let parallel = Digraph.create 2 [ arc 0 1 1 5; arc 0 1 1 2 ] in
  let sigma = [| 1; -1 |] in
  match (Core.min_cost_flow parallel ~sigma, Mcf_ssp.solve parallel ~sigma) with
  | Some r, Some oracle ->
    Alcotest.(check (float 1e-9)) "cost as SSP" oracle.Mcf_ssp.cost
      r.Mcf_ipm.cost;
    Alcotest.(check (array (float 1e-9))) "the cheaper arc carries it"
      [| 0.; 1. |] r.Mcf_ipm.f
  | _ -> Alcotest.fail "one unit over two parallel arcs is feasible"

(* ------------------------------------------------- Eulerian orientation *)

let test_euler_degenerate () =
  let passes what g =
    let r = Core.eulerian_orientation g in
    Alcotest.(check bool) what true
      (Euler.Orientation.check g r.Euler.Orientation.orientation)
  in
  passes "n = 1, no edges" (Graph.create 1 []);
  passes "n = 2, no edges" (Graph.create 2 []);
  passes "two disjoint triangles"
    (Graph.create 6
       [ edge 0 1 1.; edge 1 2 1.; edge 2 0 1.; edge 3 4 1.; edge 4 5 1.;
         edge 5 3 1. ]);
  raises_invalid "odd-degree vertex" (fun () ->
      Core.eulerian_orientation (Graph.create 3 [ edge 0 1 1.; edge 1 2 1. ]))

(* ------------------------------------------------ minimum spanning tree *)

let test_mst_degenerate () =
  let r = Core.minimum_spanning_tree (Graph.create 1 []) in
  Alcotest.(check (list int)) "n = 1: empty tree" [] r.Clique.Boruvka.edges;
  raises_invalid "disconnected graph" (fun () ->
      Core.minimum_spanning_tree (Graph.create 4 [ edge 0 1 1.; edge 2 3 1. ]));
  let r =
    Core.minimum_spanning_tree (Graph.create 2 [ edge 0 1 5.; edge 0 1 2. ])
  in
  Alcotest.(check (list int)) "of two parallel edges, the lighter" [ 1 ]
    r.Clique.Boruvka.edges;
  (* integral weights up to 1e12: every partial sum is exact, so the totals
     compare exactly whatever the summation order *)
  let base = Gen.connected_gnp ~seed:40L 24 0.3 in
  let heavy =
    Graph.create 24
      (Array.to_list
         (Array.mapi
            (fun i (e : Graph.edge) ->
              edge e.u e.v (Float.of_int (1 + ((i * 7919) mod 1000)) *. 1e9))
            (Graph.edges base)))
  in
  let weight ids =
    List.fold_left (fun acc i -> acc +. (Graph.edge heavy i).Graph.w) 0. ids
  in
  let r = Core.minimum_spanning_tree heavy in
  Alcotest.(check (float 0.)) "weights up to 1e12: Kruskal's total"
    (weight (Clique.Boruvka.kruskal heavy))
    r.Clique.Boruvka.weight

(* ----------------------------------------------------- flow rounding *)

(* s = 0, t = 3; the upper path 0 -> 1 -> 3 is cheaper than the lower. *)
let diamond =
  Digraph.create 4 [ arc 0 1 1 1; arc 0 2 1 3; arc 1 3 1 1; arc 2 3 1 3 ]

let test_round_flow_contract () =
  let f = [| 0.75; 0.25; 0.75; 0.25 |] in
  let cost e = Float.of_int (Digraph.arc diamond e).Digraph.cost in
  let r = Core.round_flow ~cost diamond ~s:0 ~t:3 ~delta:0.25 f in
  let g = r.Rounding.Flow_rounding.f in
  Alcotest.(check bool) "integral" true (Flow.is_integral g);
  Alcotest.(check bool) "feasible and conserving" true
    (Flow.is_feasible diamond ~s:0 ~t:3 ~f:g);
  Alcotest.(check bool) "value at least the input's" true
    (Flow.value diamond ~s:0 ~f:g >= Flow.value diamond ~s:0 ~f);
  Alcotest.(check bool) "cost no higher" true
    (Flow.cost diamond g <= Flow.cost diamond f)

let test_round_flow_refusals () =
  let round ~delta f () = Core.round_flow diamond ~s:0 ~t:3 ~delta f in
  raises_invalid "delta = 0.3" (round ~delta:0.3 [| 0.; 0.; 0.; 0. |]);
  raises_invalid "off-grid flow" (round ~delta:0.25 [| 0.3; 0.; 0.3; 0. |]);
  raises_invalid "non-conserving flow"
    (round ~delta:0.25 [| 0.5; 0.; 0.25; 0. |]);
  raises_invalid "over capacity" (round ~delta:0.25 [| 1.25; 0.; 1.25; 0. |])

let suite =
  [
    Alcotest.test_case "max_flow degenerate inputs" `Quick
      test_max_flow_degenerate;
    Alcotest.test_case "min_cost_flow degenerate inputs" `Quick
      test_min_cost_flow_degenerate;
    Alcotest.test_case "eulerian_orientation degenerate inputs" `Quick
      test_euler_degenerate;
    Alcotest.test_case "minimum_spanning_tree degenerate inputs" `Quick
      test_mst_degenerate;
    Alcotest.test_case "round_flow keeps the Theorem 4.1 contract" `Quick
      test_round_flow_contract;
    Alcotest.test_case "round_flow refuses bad flows" `Quick
      test_round_flow_refusals;
  ]
