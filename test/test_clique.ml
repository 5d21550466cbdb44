(* Tests for the congested-clique runtime: bandwidth enforcement, routing,
   round accounting. *)

let test_exchange_delivers () =
  let sim = Clique.Sim.create 4 in
  let outboxes =
    [| [ (1, [| 42 |]) ]; [ (2, [| 7 |]) ]; []; [ (0, [| 9 |]) ] |]
  in
  let inboxes = Clique.Sim.exchange sim outboxes in
  Alcotest.(check int) "one round" 1 (Clique.Sim.rounds sim);
  Alcotest.(check bool) "node 1 got 42" true
    (List.exists (fun (src, p) -> src = 0 && p = [| 42 |]) inboxes.(1));
  Alcotest.(check bool) "node 0 got 9" true
    (List.exists (fun (src, p) -> src = 3 && p = [| 9 |]) inboxes.(0));
  Alcotest.(check int) "words counted" 3 (Clique.Sim.words_sent sim)

let test_exchange_bandwidth_enforced () =
  let sim = Clique.Sim.create 3 in
  (* 3 words on one ordered pair exceeds the default width of 2. *)
  let outboxes = [| [ (1, [| 1; 2; 3 |]) ]; []; [] |] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Clique.Sim.exchange sim outboxes);
       false
     with Clique.Sim.Bandwidth_exceeded _ -> true)

let test_exchange_bandwidth_accumulates () =
  let sim = Clique.Sim.create 3 in
  (* Two separate messages to the same destination also exceed the width. *)
  let outboxes = [| [ (1, [| 1 |]); (1, [| 2; 3 |]) ]; []; [] |] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Clique.Sim.exchange sim outboxes);
       false
     with Clique.Sim.Bandwidth_exceeded _ -> true)

let test_route_within_lenzen_bound () =
  let n = 8 in
  let sim = Clique.Sim.create n in
  (* Everyone sends one word to everyone: n·(n−1) messages, well within the
     ≤ n-per-node bound: constant rounds. *)
  let msgs = ref [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then msgs := (src, dst, [| src |]) :: !msgs
    done
  done;
  let inboxes = Clique.Sim.route sim !msgs in
  Alcotest.(check int) "constant rounds" Runtime.Cost.lenzen_routing_rounds
    (Clique.Sim.rounds sim);
  Alcotest.(check int) "everyone hears n-1" (n - 1) (List.length inboxes.(0))

let test_route_overload_charges_batches () =
  let n = 4 in
  let sim = Clique.Sim.create n in
  (* Node 0 receives 3n·width words: needs 3 batches. *)
  let width = 2 in
  let msgs = ref [] in
  for _ = 1 to 3 * n * width do
    msgs := (1, 0, [| 5 |]) :: !msgs
  done;
  ignore (Clique.Sim.route sim !msgs);
  Alcotest.(check int) "3 batches" (3 * Runtime.Cost.lenzen_routing_rounds)
    (Clique.Sim.rounds sim)

let test_broadcast () =
  let sim = Clique.Sim.create 5 in
  let values = Array.init 5 (fun i -> [| i * i |]) in
  let view = Clique.Sim.broadcast sim values in
  Alcotest.(check int) "one round" 1 (Clique.Sim.rounds sim);
  Alcotest.(check int) "global view" 16 view.(4).(0)

let test_cost_phases () =
  let c = Runtime.Cost.create () in
  Runtime.Cost.charge c ~phase:"a" 3;
  Runtime.Cost.charge c ~phase:"b" 4;
  Runtime.Cost.charge c ~phase:"a" 2;
  Alcotest.(check int) "total" 9 (Runtime.Cost.rounds c);
  Alcotest.(check int) "phase a" 5 (Runtime.Cost.phase_rounds c "a");
  Alcotest.(check (list (pair string int)))
    "phases sorted"
    [ ("a", 5); ("b", 4) ]
    (Runtime.Cost.phases c)

let test_cost_rejects_negative () =
  let c = Runtime.Cost.create () in
  Alcotest.(check bool) "raises" true
    (try
       Runtime.Cost.charge c ~phase:"x" (-1);
       false
     with Invalid_argument _ -> true)

let test_log2_ceil () =
  Alcotest.(check int) "1" 0 (Runtime.Cost.log2_ceil 1);
  Alcotest.(check int) "2" 1 (Runtime.Cost.log2_ceil 2);
  Alcotest.(check int) "3" 2 (Runtime.Cost.log2_ceil 3);
  Alcotest.(check int) "1024" 10 (Runtime.Cost.log2_ceil 1024);
  Alcotest.(check int) "1025" 11 (Runtime.Cost.log2_ceil 1025)

let test_apsp_rounds () =
  (* ⌈n^0.158⌉: sublinear and monotone. *)
  Alcotest.(check bool) "monotone" true
    (Runtime.Cost.apsp_rounds 10000 >= Runtime.Cost.apsp_rounds 100);
  Alcotest.(check bool) "tiny" true (Runtime.Cost.apsp_rounds 100 <= 3);
  Alcotest.(check bool) "sublinear" true (Runtime.Cost.apsp_rounds 100000 <= 7)

let test_gather_rounds_scaling () =
  (* Gathering m = n²/4 edges at every node costs ≈ n/4 · words rounds:
     linear in n — this is what makes the trivial algorithm O(n log U). *)
  let r1 = Runtime.Cost.gather_rounds ~n:100 ~m:2500 ~bits_per_edge:28 in
  let r2 = Runtime.Cost.gather_rounds ~n:200 ~m:10000 ~bits_per_edge:30 in
  Alcotest.(check bool)
    (Printf.sprintf "%d -> %d roughly doubles" r1 r2)
    true
    (r2 > r1 && r2 <= 4 * r1)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"route delivers every message" ~count:30
      (pair (int_range 2 10) (int_range 1 30))
      (fun (n, k) ->
        let sim = Clique.Sim.create n in
        let msgs =
          List.init k (fun i -> (i mod n, (i + 1) mod n, [| i |]))
        in
        let msgs = List.filter (fun (a, b, _) -> a <> b) msgs in
        let inboxes = Clique.Sim.route sim msgs in
        let received = Array.fold_left (fun a l -> a + List.length l) 0 inboxes in
        received = List.length msgs);
    Test.make ~name:"cost totals equal sum of phases" ~count:30
      (list_of_size (Gen.int_range 0 20)
         (pair (string_gen_of_size (Gen.return 2) Gen.printable) (int_range 0 50)))
      (fun charges ->
        let c = Runtime.Cost.create () in
        List.iter (fun (p, r) -> Runtime.Cost.charge c ~phase:p r) charges;
        Runtime.Cost.rounds c
        = List.fold_left (fun a (_, r) -> a + r) 0
            (Runtime.Cost.phases c));
  ]

let suite =
  [
    Alcotest.test_case "exchange delivers" `Quick test_exchange_delivers;
    Alcotest.test_case "bandwidth enforced" `Quick
      test_exchange_bandwidth_enforced;
    Alcotest.test_case "bandwidth accumulates" `Quick
      test_exchange_bandwidth_accumulates;
    Alcotest.test_case "route within Lenzen bound" `Quick
      test_route_within_lenzen_bound;
    Alcotest.test_case "route overload batches" `Quick
      test_route_overload_charges_batches;
    Alcotest.test_case "broadcast" `Quick test_broadcast;
    Alcotest.test_case "cost phases" `Quick test_cost_phases;
    Alcotest.test_case "cost rejects negative" `Quick test_cost_rejects_negative;
    Alcotest.test_case "log2 ceil" `Quick test_log2_ceil;
    Alcotest.test_case "apsp rounds" `Quick test_apsp_rounds;
    Alcotest.test_case "gather rounds scaling" `Quick test_gather_rounds_scaling;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests

(* ---------------------------------------------------------------- Boruvka *)

module Graph_gen = Gen

let mst_weight g ids =
  List.fold_left (fun a id -> a +. (Graph.edge g id).Graph.w) 0. ids

let test_boruvka_path () =
  let g = Graph_gen.path 10 in
  let r = Clique.Boruvka.minimum_spanning_tree g in
  Alcotest.(check int) "all edges" 9 (List.length r.Clique.Boruvka.edges);
  Alcotest.(check (float 1e-9)) "weight" 9. r.Clique.Boruvka.weight

let test_boruvka_matches_kruskal () =
  List.iter
    (fun seed ->
      let g =
        Graph.map_weights
          (fun e -> 1. +. float_of_int ((e.Graph.u * 7 + e.Graph.v * 13) mod 19))
          (Graph_gen.connected_gnp ~seed:(Int64.of_int seed) 40 0.2)
      in
      let r = Clique.Boruvka.minimum_spanning_tree g in
      let oracle = Clique.Boruvka.kruskal g in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "weight (seed %d)" seed)
        (mst_weight g oracle) r.Clique.Boruvka.weight;
      Alcotest.(check int) "n-1 edges" 39 (List.length r.Clique.Boruvka.edges))
    [ 1; 2; 3; 4; 5 ]

let test_boruvka_rounds_logarithmic () =
  let g = Graph_gen.connected_gnp ~seed:7L 200 0.05 in
  let r = Clique.Boruvka.minimum_spanning_tree g in
  (* 2 broadcast rounds per phase, O(log n) phases. *)
  Alcotest.(check bool)
    (Printf.sprintf "rounds=%d phases=%d" r.Clique.Boruvka.rounds
       r.Clique.Boruvka.phases)
    true
    (r.Clique.Boruvka.rounds = 2 * r.Clique.Boruvka.phases
    && r.Clique.Boruvka.phases <= 9)

let test_boruvka_rejects_disconnected () =
  let g = Graph.create 4 [ { Graph.u = 0; v = 1; w = 1. } ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Clique.Boruvka.minimum_spanning_tree g);
       false
     with Invalid_argument _ -> true)

(* ---------------------------------------------------------------- Congest *)

let test_congest_rejects_non_edges () =
  let g = Graph_gen.path 4 in
  let c = Clique.Congest.create g in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Clique.Congest.exchange c [| [ (3, [| 1 |]) ]; []; []; [] |]);
       false
     with Clique.Congest.Not_an_edge _ -> true)

let test_congest_bfs_takes_eccentricity_rounds () =
  let g = Graph_gen.path 10 in
  let c = Clique.Congest.create g in
  let dist = Clique.Congest.bfs c 0 in
  Alcotest.(check int) "distance to far end" 9 dist.(9);
  (* Flooding needs one final round in which the last frontier discovers
     nobody (termination detection). *)
  Alcotest.(check int) "rounds = eccentricity + 1" 10 (Clique.Congest.rounds c)

let test_congest_bfs_matches_oracle () =
  let g = Graph_gen.connected_gnp ~seed:9L 30 0.15 in
  let c = Clique.Congest.create g in
  let dist = Clique.Congest.bfs c 0 in
  let oracle = Traversal.bfs g 0 in
  Alcotest.(check bool) "distances agree" true (dist = oracle)

let test_congest_bellman_ford () =
  let g =
    Graph.create 3
      [
        { Graph.u = 0; v = 1; w = 1. };
        { Graph.u = 1; v = 2; w = 1. };
        { Graph.u = 0; v = 2; w = 5. };
      ]
  in
  let c = Clique.Congest.create g in
  let dist = Clique.Congest.bellman_ford c 0 in
  Alcotest.(check (float 1e-2)) "shortest via middle" 2. dist.(2)

let test_congest_diameter () =
  Alcotest.(check int) "path" 9 (Clique.Congest.diameter (Graph_gen.path 10));
  Alcotest.(check int) "complete" 1
    (Clique.Congest.diameter (Graph_gen.complete 6));
  let disconnected = Graph.create 3 [ { Graph.u = 0; v = 1; w = 1. } ] in
  Alcotest.(check int) "disconnected" max_int
    (Clique.Congest.diameter disconnected)

let test_congest_reference_ordering () =
  (* The whole point of §1.1: clique rounds beat CONGEST rounds. *)
  (* The separation is asymptotic: at n = 10^6 the CONGEST per-iteration
     cost √n + √n·D^{1/4} dwarfs the clique's n^{o(1)} solve. *)
  let n = 1_000_000 and m = 100_000_000 and d = 50 and u = 16 in
  let congest = Clique.Congest.fglp_maxflow_rounds ~n ~m ~d ~u in
  let clique = Maxflow_ipm.rounds_reference ~n ~m ~u in
  Alcotest.(check bool)
    (Printf.sprintf "clique %d < congest %d" clique congest)
    true (clique < congest)

let boruvka_qcheck =
  let open QCheck in
  [
    Test.make ~name:"boruvka = kruskal weight" ~count:25 small_nat
      (fun seed ->
        let g =
          Graph.map_weights
            (fun e -> 1. +. float_of_int ((e.Graph.u + (3 * e.Graph.v)) mod 11))
            (Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 101)) 20 0.3)
        in
        let r = Clique.Boruvka.minimum_spanning_tree g in
        Float.abs (r.Clique.Boruvka.weight -. mst_weight g (Clique.Boruvka.kruskal g))
        < 1e-9);
    Test.make ~name:"congest bfs = centralized bfs" ~count:25 small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 203)) 16 0.3
        in
        let c = Clique.Congest.create g in
        Clique.Congest.bfs c 0 = Traversal.bfs g 0);
  ]

let suite =
  suite
  @ [
      Alcotest.test_case "boruvka path" `Quick test_boruvka_path;
      Alcotest.test_case "boruvka = kruskal" `Quick test_boruvka_matches_kruskal;
      Alcotest.test_case "boruvka rounds logarithmic" `Quick
        test_boruvka_rounds_logarithmic;
      Alcotest.test_case "boruvka rejects disconnected" `Quick
        test_boruvka_rejects_disconnected;
      Alcotest.test_case "congest rejects non-edges" `Quick
        test_congest_rejects_non_edges;
      Alcotest.test_case "congest bfs rounds" `Quick
        test_congest_bfs_takes_eccentricity_rounds;
      Alcotest.test_case "congest bfs oracle" `Quick
        test_congest_bfs_matches_oracle;
      Alcotest.test_case "congest bellman-ford" `Quick test_congest_bellman_ford;
      Alcotest.test_case "congest diameter" `Quick test_congest_diameter;
      Alcotest.test_case "congest vs clique reference" `Quick
        test_congest_reference_ordering;
    ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) boruvka_qcheck
