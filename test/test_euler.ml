(* Tests for Eulerian orientation (Theorem 1.4). *)

module Graph_gen = Gen

let check_orient ?choose g =
  let r = Euler.Orientation.orient ?choose g in
  Alcotest.(check bool) "balanced orientation" true
    (Euler.Orientation.check g r.Euler.Orientation.orientation);
  r

let test_single_cycle () =
  let g = Graph_gen.cycle 7 in
  let r = check_orient g in
  Alcotest.(check int) "one ring" 1 r.Euler.Orientation.rings

let test_two_parallel_edges () =
  let g =
    Graph.create 2
      [ { Graph.u = 0; v = 1; w = 1. }; { Graph.u = 0; v = 1; w = 1. } ]
  in
  let r = check_orient g in
  (* The two copies must take opposite directions. *)
  Alcotest.(check bool) "opposite" true
    (r.Euler.Orientation.orientation.(0)
    <> r.Euler.Orientation.orientation.(1))

let test_hypercube () =
  (* Hypercube of even dimension is Eulerian. *)
  let g = Graph_gen.hypercube 4 in
  Alcotest.(check bool) "eulerian" true (Euler.Orientation.is_eulerian g);
  ignore (check_orient g)

let test_complete_odd () =
  (* K_n with odd n: all degrees even. *)
  let g = Graph_gen.complete 9 in
  ignore (check_orient g)

let test_even_gnp_family () =
  List.iter
    (fun seed ->
      let g = Graph_gen.even_gnp ~seed:(Int64.of_int seed) 40 0.2 in
      ignore (check_orient g))
    [ 1; 2; 3; 4; 5; 6 ]

let test_cycle_union_family () =
  List.iter
    (fun (n, k, seed) ->
      let g = Graph_gen.cycle_union ~seed:(Int64.of_int seed) n k in
      ignore (check_orient g))
    [ (10, 3, 1); (25, 6, 2); (50, 10, 3); (100, 12, 4) ]

let test_odd_degree_rejected () =
  let g = Graph_gen.path 3 in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Euler.Orientation.orient g);
       false
     with Invalid_argument _ -> true)

let test_empty_graph () =
  let g = Graph.create 5 [] in
  let r = Euler.Orientation.orient g in
  Alcotest.(check int) "no rounds" 0 r.Euler.Orientation.rounds

let test_round_scaling () =
  (* Measured rounds grow like log n · log* n: compare n = 64 and n = 1024
     single cycles — ratio should be ≈ log ratio (log* equal), well below
     linear. *)
  let r1 = check_orient (Graph_gen.cycle 64) in
  let r2 = check_orient (Graph_gen.cycle 1024) in
  let rounds1 = r1.Euler.Orientation.rounds in
  let rounds2 = r2.Euler.Orientation.rounds in
  Alcotest.(check bool)
    (Printf.sprintf "sublinear growth: %d -> %d" rounds1 rounds2)
    true
    (rounds2 < 4 * rounds1);
  Alcotest.(check bool) "within reference curve" true
    (rounds2 <= Euler.Orientation.rounds_reference ~n:1024)

let test_iterations_logarithmic () =
  let r = check_orient (Graph_gen.cycle 512) in
  Alcotest.(check bool)
    (Printf.sprintf "iterations=%d" r.Euler.Orientation.iterations)
    true
    (r.Euler.Orientation.iterations <= 11)

let test_choose_flip () =
  (* Flipping every ring still balances. *)
  let g = Graph_gen.cycle_union ~seed:9L 30 5 in
  let r = check_orient ~choose:(fun _ -> false) g in
  let r' = check_orient ~choose:(fun _ -> true) g in
  (* Same ring structure, opposite orientations. *)
  Alcotest.(check int) "same rings" r.Euler.Orientation.rings
    r'.Euler.Orientation.rings

let test_choose_sees_whole_ring () =
  let g = Graph_gen.cycle 6 in
  let seen = ref 0 in
  let choose edges =
    seen := List.length edges;
    true
  in
  ignore (check_orient ~choose g);
  Alcotest.(check int) "leader sees all 6 edges" 6 !seen

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"orientation always balanced (even_gnp)" ~count:30
      small_nat
      (fun seed ->
        let g =
          Graph_gen.even_gnp ~seed:(Int64.of_int (seed + 1)) 24 0.25
        in
        let r = Euler.Orientation.orient g in
        Euler.Orientation.check g r.Euler.Orientation.orientation);
    Test.make ~name:"orientation always balanced (cycle unions)" ~count:30
      (pair (int_range 5 60) (int_range 1 8))
      (fun (n, k) ->
        let g = Graph_gen.cycle_union ~seed:(Int64.of_int (n + k)) n k in
        let r = Euler.Orientation.orient g in
        Euler.Orientation.check g r.Euler.Orientation.orientation);
    Test.make ~name:"every edge gets exactly one direction" ~count:20
      small_nat
      (fun seed ->
        let g = Graph_gen.even_gnp ~seed:(Int64.of_int (seed + 77)) 20 0.3 in
        let r = Euler.Orientation.orient g in
        Array.length r.Euler.Orientation.orientation = Graph.m g);
  ]

let suite =
  [
    Alcotest.test_case "single cycle" `Quick test_single_cycle;
    Alcotest.test_case "two parallel edges" `Quick test_two_parallel_edges;
    Alcotest.test_case "hypercube" `Quick test_hypercube;
    Alcotest.test_case "complete K9" `Quick test_complete_odd;
    Alcotest.test_case "even gnp family" `Quick test_even_gnp_family;
    Alcotest.test_case "cycle union family" `Quick test_cycle_union_family;
    Alcotest.test_case "odd degree rejected" `Quick test_odd_degree_rejected;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "round scaling log n log* n" `Quick test_round_scaling;
    Alcotest.test_case "iterations logarithmic" `Quick
      test_iterations_logarithmic;
    Alcotest.test_case "choose flip" `Quick test_choose_flip;
    Alcotest.test_case "choose sees whole ring" `Quick
      test_choose_sees_whole_ring;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests

(* ------------------------------------------- randomized selector (remark) *)

let test_randomized_orientation_balanced () =
  List.iter
    (fun seed ->
      let g = Graph_gen.even_gnp ~seed:(Int64.of_int seed) 40 0.2 in
      let r =
        Euler.Orientation.orient
          ~selector:(Euler.Orientation.Sampling (Int64.of_int (seed * 7)))
          g
      in
      Alcotest.(check bool) "balanced" true
        (Euler.Orientation.check g r.Euler.Orientation.orientation))
    [ 1; 2; 3; 4; 5 ]

let test_randomized_drops_coloring_rounds () =
  let g = Graph_gen.cycle 2048 in
  let det = Euler.Orientation.orient g in
  let rnd =
    Euler.Orientation.orient ~selector:(Euler.Orientation.Sampling 5L) g
  in
  Alcotest.(check bool) "balanced" true
    (Euler.Orientation.check g rnd.Euler.Orientation.orientation);
  Alcotest.(check int) "no coloring rounds" 0
    rnd.Euler.Orientation.coloring_rounds;
  Alcotest.(check bool)
    (Printf.sprintf "fewer rounds: %d < %d" rnd.Euler.Orientation.rounds
       det.Euler.Orientation.rounds)
    true
    (rnd.Euler.Orientation.rounds < det.Euler.Orientation.rounds)

let suite =
  suite
  @ [
      Alcotest.test_case "randomized selector balanced" `Quick
        test_randomized_orientation_balanced;
      Alcotest.test_case "randomized drops coloring rounds" `Quick
        test_randomized_drops_coloring_rounds;
    ]

(* ------------------------------------------------ golden orientations *)

(* Every output of [orient], pinned: the orientation (MD5 of its 0/1
   string), rounds, rings, iterations, coloring rounds and the phase
   ledger. The orientation pins the trails, so the order in which each
   vertex pairs its edges; the counts pin the contraction. Recorded
   before the trails and the contraction moved from hash tables to
   arrays; the multigraph has parallel edges, as flow rounding's odd-arc
   graphs do, and the cost rule compares ring costs as flow rounding's
   does. *)
let orientation_fp o =
  Digest.to_hex
    (Digest.string
       (String.init (Array.length o) (fun i -> if o.(i) then '1' else '0')))

let cost_choose ring =
  let fwd = ref 0 and bwd = ref 0 in
  List.iter
    (fun re ->
      let c = (re.Euler.Orientation.edge * 37) mod 11 in
      if re.Euler.Orientation.along then fwd := !fwd + c else bwd := !bwd + c)
    ring;
  !fwd <= !bwd

let golden_multigraph () =
  let a = Graph_gen.cycle_union ~seed:5L 64 4 in
  Graph.union (Graph.union a a) (Graph_gen.cycle_union ~seed:6L 64 3)

let golden_cycle_union s () = Graph_gen.cycle_union ~seed:s 512 8

let phases ~bridge ~coloring ~decision ~reverse =
  [
    ("bridge", bridge);
    ("coloring", coloring);
    ("decision", decision);
    ("reverse", reverse);
  ]

let golden_cases =
  let cv = Euler.Orientation.Cole_vishkin in
  let sampling s = Euler.Orientation.Sampling s in
  [
    ( "cycle_union seed 1", golden_cycle_union 1L, cv, false,
      ("1fa8124fc8e0e4fa9ea52f06521e3d81", 398, 8, 9, 53),
      phases ~bridge:144 ~coloring:53 ~decision:4 ~reverse:197 );
    ( "cycle_union seed 2", golden_cycle_union 2L, cv, false,
      ("63fb431e0756ea043453895be1916b9a", 396, 8, 9, 52),
      phases ~bridge:144 ~coloring:52 ~decision:4 ~reverse:196 );
    ( "cycle_union seed 3", golden_cycle_union 3L, cv, false,
      ("66ec9f9505b01ddef05b42649c07ffc3", 396, 8, 9, 52),
      phases ~bridge:144 ~coloring:52 ~decision:4 ~reverse:196 );
    ( "cycle_union seed 4", golden_cycle_union 4L, cv, false,
      ("e8b97b41ac3a8e0eb519ee57f8af60aa", 400, 8, 9, 54),
      phases ~bridge:144 ~coloring:54 ~decision:4 ~reverse:198 );
    ( "multigraph", golden_multigraph, cv, false,
      ("4a22029d446be85c4bcc2a7c84634567", 266, 11, 6, 35),
      phases ~bridge:96 ~coloring:35 ~decision:4 ~reverse:131 );
    ( "multigraph, cost choose", golden_multigraph, cv, true,
      ("c77a16e024a3abd231607619c31af43d", 266, 11, 6, 35),
      phases ~bridge:96 ~coloring:35 ~decision:4 ~reverse:131 );
    ( "cycle_union seed 1, cost choose", golden_cycle_union 1L, cv, true,
      ("25c666b8881e8ae22e0e778bbdfc3668", 398, 8, 9, 53),
      phases ~bridge:144 ~coloring:53 ~decision:4 ~reverse:197 );
    ( "cycle_union seed 1, sampling 7", golden_cycle_union 1L, sampling 7L,
      false,
      ("1fa8124fc8e0e4fa9ea52f06521e3d81", 292, 8, 9, 0),
      phases ~bridge:144 ~coloring:0 ~decision:4 ~reverse:144 );
    ( "cycle_union seed 2, sampling 14", golden_cycle_union 2L, sampling 14L,
      false,
      ("63fb431e0756ea043453895be1916b9a", 292, 8, 9, 0),
      phases ~bridge:144 ~coloring:0 ~decision:4 ~reverse:144 );
    ( "multigraph, sampling 3", golden_multigraph, sampling 3L, false,
      ("4a22029d446be85c4bcc2a7c84634567", 196, 11, 6, 0),
      phases ~bridge:96 ~coloring:0 ~decision:4 ~reverse:96 );
  ]

let test_golden_orientations () =
  List.iter
    (fun (name, g, selector, cost, (fp, rounds, rings, iterations, coloring),
          phase_rounds) ->
      let g = g () in
      let choose = if cost then Some cost_choose else None in
      let r = Euler.Orientation.orient ~selector ?choose g in
      let check what = Alcotest.(check int) (name ^ ": " ^ what) in
      Alcotest.(check string) (name ^ ": orientation") fp
        (orientation_fp r.Euler.Orientation.orientation);
      check "rounds" rounds r.Euler.Orientation.rounds;
      check "rings" rings r.Euler.Orientation.rings;
      check "iterations" iterations r.Euler.Orientation.iterations;
      check "coloring rounds" coloring r.Euler.Orientation.coloring_rounds;
      Alcotest.(check (list (pair string int)))
        (name ^ ": phase rounds") phase_rounds
        r.Euler.Orientation.phase_rounds)
    golden_cases

let suite =
  suite
  @ [
      Alcotest.test_case "golden orientations" `Quick test_golden_orientations;
    ]
