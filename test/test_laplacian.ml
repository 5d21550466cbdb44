(* Tests for the Theorem 1.1 solver: error metric, iteration scaling, round
   accounting, baselines. *)

module Graph_gen = Gen

let demand n =
  Linalg.Vec.center (Linalg.Vec.init n (fun i -> float_of_int ((i * 17) mod 13)))

let test_solver_meets_error_bound () =
  let n = 50 in
  let g = Graph_gen.connected_gnp ~seed:100L n 0.3 in
  let b = demand n in
  List.iter
    (fun eps ->
      let r = Laplacian.Solver.solve ~eps g b in
      let err = Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b in
      if err > eps then
        Alcotest.failf "L-norm error %g exceeds eps %g" err eps)
    [ 1e-2; 1e-4; 1e-6 ]

let test_solver_weighted_graph () =
  let n = 40 in
  let g = Graph_gen.weighted_gnp ~seed:101L n 0.3 32 in
  let b = demand n in
  let r = Laplacian.Solver.solve ~eps:1e-5 g b in
  let err = Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b in
  Alcotest.(check bool)
    (Printf.sprintf "err=%g" err)
    true (err <= 1e-5)

let test_solver_iterations_grow_with_precision () =
  let n = 45 in
  let g = Graph_gen.connected_gnp ~seed:102L n 0.25 in
  let b = demand n in
  let r1 = Laplacian.Solver.solve ~eps:1e-2 g b in
  let r2 = Laplacian.Solver.solve ~eps:1e-8 g b in
  Alcotest.(check bool) "more precision, more iterations" true
    (r2.Laplacian.Solver.iterations >= r1.Laplacian.Solver.iterations)

let test_solver_rounds_breakdown () =
  let n = 40 in
  let g = Graph_gen.connected_gnp ~seed:103L n 0.3 in
  let b = demand n in
  let r = Laplacian.Solver.solve g b in
  let phases = List.map fst r.Laplacian.Solver.phase_rounds in
  List.iter
    (fun p ->
      if not (List.mem p phases) then Alcotest.failf "missing phase %s" p)
    [ "sparsify"; "kappa-estimate"; "chebyshev" ];
  let total =
    List.fold_left (fun a (_, r) -> a + r) 0 r.Laplacian.Solver.phase_rounds
  in
  Alcotest.(check int) "phases sum to total" r.Laplacian.Solver.rounds total

let test_solver_reuse_sparsifier () =
  let n = 40 in
  let g = Graph_gen.connected_gnp ~seed:104L n 0.3 in
  let sp = Sparsify.Spectral.sparsify g in
  let b = demand n in
  let r = Laplacian.Solver.solve_with_sparsifier g sp b in
  let err = Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b in
  Alcotest.(check bool) "reused sparsifier solves" true (err < 1e-4);
  (* No sparsify phase charged. *)
  Alcotest.(check bool) "no sparsify charge" true
    (not (List.mem_assoc "sparsify" r.Laplacian.Solver.phase_rounds))

let test_cg_baseline_solves () =
  let n = 40 in
  let g = Graph_gen.connected_gnp ~seed:105L n 0.3 in
  let b = demand n in
  let r = Laplacian.Solver.solve_cg_baseline ~eps:1e-6 g b in
  let err = Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b in
  Alcotest.(check bool) "baseline error" true (err < 1e-5);
  Alcotest.(check bool) "rounds = iterations" true
    (r.Laplacian.Solver.rounds = r.Laplacian.Solver.iterations)

let test_solver_iterative_inner () =
  let n = 60 in
  let g = Graph_gen.connected_gnp ~seed:106L n 0.2 in
  let b = demand n in
  let r = Laplacian.Solver.solve ~inner:Laplacian.Solver.Iterative g b in
  let err = Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b in
  Alcotest.(check bool) "iterative inner solves" true (err < 1e-4)

let test_solver_on_structured_graphs () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let b = demand n in
      let r = Laplacian.Solver.solve ~eps:1e-4 g b in
      let err = Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b in
      if err > 1e-4 then Alcotest.failf "%s: error %g" name err)
    [
      ("grid 6x8", Graph_gen.grid 6 8);
      ("cycle 50", Graph_gen.cycle 50);
      ("expander 48", Graph_gen.expander 48 8);
      ("barbell 15", Graph_gen.barbell 15);
      ("star 40", Graph_gen.star 40);
    ]

let test_solver_path_effective_resistance () =
  (* On a path, L†(e_s − e_t) gives potentials with difference = distance. *)
  let n = 10 in
  let g = Graph_gen.path n in
  let b = Linalg.Vec.sub (Linalg.Vec.basis n 0) (Linalg.Vec.basis n (n - 1)) in
  let r = Laplacian.Solver.solve ~eps:1e-8 g b in
  let x = r.Laplacian.Solver.x in
  Alcotest.(check (float 1e-4)) "effective resistance of P10"
    (float_of_int (n - 1))
    (x.(0) -. x.(n - 1))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"solver meets bound on random graphs" ~count:8 small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 61)) 30 0.3
        in
        let b = demand 30 in
        let r = Laplacian.Solver.solve ~eps:1e-4 g b in
        Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b <= 1e-4);
  ]

let suite =
  [
    Alcotest.test_case "meets Theorem 1.1 error bound" `Quick
      test_solver_meets_error_bound;
    Alcotest.test_case "weighted graphs" `Quick test_solver_weighted_graph;
    Alcotest.test_case "iterations grow with precision" `Quick
      test_solver_iterations_grow_with_precision;
    Alcotest.test_case "round breakdown consistent" `Quick
      test_solver_rounds_breakdown;
    Alcotest.test_case "sparsifier reuse" `Quick test_solver_reuse_sparsifier;
    Alcotest.test_case "cg baseline" `Quick test_cg_baseline_solves;
    Alcotest.test_case "iterative inner solver" `Quick
      test_solver_iterative_inner;
    Alcotest.test_case "structured graphs" `Quick
      test_solver_on_structured_graphs;
    Alcotest.test_case "path effective resistance" `Quick
      test_solver_path_effective_resistance;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests

(* ---------------------------------------------------- handle reuse *)

(* [solve] runs on a fresh handle. A handle that has already served other
   right-hand sides must answer identically — solution bits, residual, and
   the whole round ledger — on every later call (the daemon's steady
   state). *)
let check_same tag (r : Laplacian.Solver.report) (r' : Laplacian.Solver.report)
    =
  Alcotest.(check bool)
    (tag ^ ": x bit-identical") true
    (r.Laplacian.Solver.x = r'.Laplacian.Solver.x);
  Alcotest.(check (float 0.))
    (tag ^ ": residual") r.Laplacian.Solver.residual
    r'.Laplacian.Solver.residual;
  Alcotest.(check int)
    (tag ^ ": iterations") r.Laplacian.Solver.iterations
    r'.Laplacian.Solver.iterations;
  Alcotest.(check int)
    (tag ^ ": rounds") r.Laplacian.Solver.rounds r'.Laplacian.Solver.rounds;
  Alcotest.(check bool)
    (tag ^ ": phase ledger") true
    (r.Laplacian.Solver.phase_rounds = r'.Laplacian.Solver.phase_rounds);
  Alcotest.(check int64)
    (tag ^ ": kappa bits")
    (Int64.bits_of_float r.Laplacian.Solver.kappa)
    (Int64.bits_of_float r'.Laplacian.Solver.kappa);
  Alcotest.(check int)
    (tag ^ ": sparsifier edges") r.Laplacian.Solver.sparsifier_edges
    r'.Laplacian.Solver.sparsifier_edges

let test_prepared_matches_solve () =
  List.iter
    (fun (seed, n, p, eps) ->
      let g = Gen.connected_gnp ~seed:(Int64.of_int seed) n p in
      let b =
        Linalg.Vec.init n (fun i -> float_of_int ((i * 11) mod 7) -. 3.)
      in
      let fresh = Laplacian.Solver.solve ~eps g b in
      let prep = Laplacian.Solver.prepare ~eps g in
      ignore (Laplacian.Solver.solve_prepared prep (Linalg.Vec.basis n 0));
      check_same "reused handle" fresh (Laplacian.Solver.solve_prepared prep b);
      check_same "repeat call" fresh (Laplacian.Solver.solve_prepared prep b))
    [ (31, 24, 0.3, 1e-6); (32, 40, 0.15, 1e-4) ]

let test_prepared_cg_matches_baseline () =
  let g = Gen.connected_gnp ~seed:33L 30 0.25 in
  let b = Linalg.Vec.init 30 (fun i -> sin (float_of_int (2 * i))) in
  let fresh = Laplacian.Solver.solve_cg_baseline ~eps:1e-6 g b in
  let prep = Laplacian.Solver.prepare_cg ~eps:1e-6 g in
  ignore (Laplacian.Solver.solve_cg_prepared prep (Linalg.Vec.basis 30 3));
  check_same "reused handle" fresh (Laplacian.Solver.solve_cg_prepared prep b);
  check_same "repeat call" fresh (Laplacian.Solver.solve_cg_prepared prep b)

let test_prepared_distinct_rhs () =
  (* One handle, many right-hand sides, interleaved: each must match a
     fresh handle's answer for that rhs. *)
  let g = Gen.connected_gnp ~seed:34L 20 0.35 in
  let prep = Laplacian.Solver.prepare g in
  List.iter
    (fun k ->
      let b =
        Linalg.Vec.init 20 (fun i -> float_of_int (((i + k) * 17) mod 13))
      in
      check_same (Printf.sprintf "rhs %d" k) (Laplacian.Solver.solve g b)
        (Laplacian.Solver.solve_prepared prep b))
    [ 0; 1; 5; 1; 0 ]

let suite =
  suite
  @ [
      Alcotest.test_case "prepared matches solve" `Quick
        test_prepared_matches_solve;
      Alcotest.test_case "prepared cg matches baseline" `Quick
        test_prepared_cg_matches_baseline;
      Alcotest.test_case "prepared handle, many rhs" `Quick
        test_prepared_distinct_rhs;
    ]

(* ------------------------------------------------------ degenerate inputs *)

let both_methods g =
  [
    ("chebyshev", Laplacian.Solver.solve g);
    ("cg", Laplacian.Solver.solve_cg_baseline g);
  ]

let test_rhs_dimension_checked () =
  let g = Gen.connected_gnp ~seed:3L 12 0.4 in
  let prep = Laplacian.Solver.prepare g in
  Alcotest.check_raises "solve_prepared, short rhs"
    (Invalid_argument
       "Solver.solve_prepared: rhs has dimension 11 but the graph has 12 nodes")
    (fun () -> ignore (Laplacian.Solver.solve_prepared prep (Linalg.Vec.create 11)));
  Alcotest.check_raises "solve, long rhs"
    (Invalid_argument
       "Solver.solve_prepared: rhs has dimension 13 but the graph has 12 nodes")
    (fun () -> ignore (Laplacian.Solver.solve g (Linalg.Vec.create 13)));
  let prep_cg = Laplacian.Solver.prepare_cg g in
  Alcotest.check_raises "solve_cg_prepared, long rhs"
    (Invalid_argument
       "Solver.solve_cg_prepared: rhs has dimension 13 but the graph has 12 \
        nodes")
    (fun () ->
      ignore (Laplacian.Solver.solve_cg_prepared prep_cg (Linalg.Vec.create 13)));
  Alcotest.check_raises "solve_cg_baseline, short rhs"
    (Invalid_argument
       "Solver.solve_cg_prepared: rhs has dimension 11 but the graph has 12 \
        nodes")
    (fun () -> ignore (Laplacian.Solver.solve_cg_baseline g (Linalg.Vec.create 11)));
  (* A rejected rhs leaves the handle usable. *)
  let b = demand 12 in
  Alcotest.(check bool)
    "handle still answers" true
    ((Laplacian.Solver.solve_prepared prep b).Laplacian.Solver.x
    = (Laplacian.Solver.solve g b).Laplacian.Solver.x)

let test_tiny_graphs () =
  List.iter
    (fun (name, solve) ->
      let r = solve [| 3. |] in
      Alcotest.(check (array (float 0.))) (name ^ ": n=1, x = 0") [| 0. |]
        r.Laplacian.Solver.x)
    (both_methods (Graph.create 1 []));
  (* One unit edge: L = [1 -1; -1 1], L†(e0 - e1) = (1/2, -1/2). *)
  List.iter
    (fun (name, solve) ->
      let r = solve [| 1.; -1. |] in
      Alcotest.(check (array (float 1e-9))) (name ^ ": n=2") [| 0.5; -0.5 |]
        r.Laplacian.Solver.x)
    (both_methods (Gen.path 2))

let test_zero_rhs () =
  let g = Gen.connected_gnp ~seed:3L 12 0.4 in
  List.iter
    (fun (name, solve) ->
      (* A constant rhs centers to zero: it has no component in range L. *)
      List.iter
        (fun (tag, b) ->
          let r = solve b in
          Alcotest.(check (array (float 0.)))
            (Printf.sprintf "%s, %s rhs: x = 0" name tag)
            (Linalg.Vec.create 12) r.Laplacian.Solver.x;
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s, %s rhs: residual" name tag)
            0. r.Laplacian.Solver.residual)
        [ ("zero", Linalg.Vec.create 12); ("constant", Linalg.Vec.constant 12 2.) ])
    (both_methods g)

let test_disconnected_rejected () =
  let g =
    Graph.create 4
      [ { Graph.u = 0; v = 1; w = 1. }; { Graph.u = 2; v = 3; w = 1. } ]
  in
  let b = [| 1.; -1.; 0.; 0. |] in
  let rejects entry f =
    Alcotest.check_raises entry
      (Invalid_argument
         (entry ^ ": graph must be connected (L† needs one component)"))
      (fun () -> ignore (f ()))
  in
  rejects "Solver.prepare" (fun () -> Laplacian.Solver.solve g b);
  rejects "Solver.solve_with_sparsifier" (fun () ->
      Laplacian.Solver.solve_with_sparsifier g
        (Sparsify.Spectral.sparsify (Gen.cycle 4))
        b);
  rejects "Solver.prepare_cg" (fun () -> Laplacian.Solver.solve_cg_baseline g b)

let suite =
  suite
  @ [
      Alcotest.test_case "rhs dimension checked" `Quick
        test_rhs_dimension_checked;
      Alcotest.test_case "n=1 and n=2" `Quick test_tiny_graphs;
      Alcotest.test_case "zero rhs" `Quick test_zero_rhs;
      Alcotest.test_case "disconnected graph rejected" `Quick
        test_disconnected_rejected;
    ]

(* ------------------------------------------------- pinned golden reports *)

(* Reports pinned bit for bit, one per entry point and inner solver: any
   drift in the solution bits, the residual or κ bits, the iteration count
   or the round ledger fails here. The values were recorded with the
   solver's former separate one-shot implementation, so they also pin the
   prepared-handle path to it. [x_fnv] is FNV-1a over the IEEE bits of [x]
   (the encoding of [Serve.Fingerprint.vec]). *)
type golden = {
  x_fnv : int64;
  iterations : int;
  residual : int64;
  kappa : int64;
  rounds : int;
  phases : (string * int) list;
  edges : int;
}

let fnv_vec v =
  Array.fold_left
    (fun fp x -> Wire.Fnv.add_int fp (Int64.to_int (Int64.bits_of_float x)))
    (Wire.Fnv.add_int Wire.Fnv.offset (Array.length v))
    v

let golden_of (r : Laplacian.Solver.report) =
  {
    x_fnv = fnv_vec r.Laplacian.Solver.x;
    iterations = r.Laplacian.Solver.iterations;
    residual = Int64.bits_of_float r.Laplacian.Solver.residual;
    kappa = Int64.bits_of_float r.Laplacian.Solver.kappa;
    rounds = r.Laplacian.Solver.rounds;
    phases = r.Laplacian.Solver.phase_rounds;
    edges = r.Laplacian.Solver.sparsifier_edges;
  }

let pp_golden g =
  Printf.sprintf
    "x_fnv=%016Lx iterations=%d residual=%016Lx kappa=%016Lx rounds=%d \
     phases=[%s] edges=%d"
    g.x_fnv g.iterations g.residual g.kappa g.rounds
    (String.concat "; "
       (List.map (fun (p, r) -> Printf.sprintf "%s=%d" p r) g.phases))
    g.edges

let golden_rhs n = Linalg.Vec.init n (fun i -> float_of_int ((i * 7) mod 11) -. 5.)

let ledger ~cheb ~sparsify =
  [ ("chebyshev", cheb); ("kappa-estimate", 80) ]
  @ match sparsify with Some s -> [ ("sparsify", s) ] | None -> []

let golden_cases =
  let open Laplacian.Solver in
  let sparsified seed n p u =
    let g = Gen.weighted_gnp ~seed n p u in
    solve_with_sparsifier ~eps:1e-6 g (Sparsify.Spectral.sparsify g)
      (golden_rhs n)
  in
  [
    ( "direct",
      (fun () ->
        solve ~eps:1e-6 (Gen.weighted_gnp ~seed:41L 48 0.25 16) (golden_rhs 48)),
      {
        x_fnv = 0x12b7b6f81dceb02fL;
        iterations = 7;
        residual = 0x3e0bf3dbaa78ff5cL;
        kappa = 0x3ff3333333333333L;
        rounds = 310;
        phases = ledger ~cheb:7 ~sparsify:(Some 223);
        edges = 314;
      } );
    ( "iterative",
      (fun () ->
        solve ~eps:1e-6 ~inner:Iterative (Gen.connected_gnp ~seed:42L 60 0.2)
          (golden_rhs 60)),
      {
        x_fnv = 0x9dae62335a842789L;
        iterations = 7;
        residual = 0x3e0bf3dbaa79a626L;
        kappa = 0x3ff3333333333334L;
        rounds = 170;
        phases = ledger ~cheb:7 ~sparsify:(Some 83);
        edges = 395;
      } );
    ( "from sparsifier",
      (fun () -> sparsified 5L 60 0.3 8),
      {
        x_fnv = 0xa5d35d936d24b84eL;
        iterations = 7;
        residual = 0x3e0bf3dbaa770dd0L;
        kappa = 0x3ff3333333333333L;
        rounds = 87;
        phases = ledger ~cheb:7 ~sparsify:None;
        edges = 576;
      } );
    ( "cg baseline",
      (fun () ->
        solve_cg_baseline ~eps:1e-6 (Gen.connected_gnp ~seed:44L 50 0.2)
          (golden_rhs 50)),
      {
        x_fnv = 0xc240c63a372b764aL;
        iterations = 16;
        residual = 0x3e4150c1c4d70723L;
        kappa = Int64.bits_of_float nan;
        rounds = 16;
        phases = [ ("cg", 16) ];
        edges = 0;
      } );
    ( "broadcast model",
      (fun () ->
        solve ~eps:1e-4 ~model:Runtime.Model.Broadcast
          (Gen.connected_gnp ~seed:46L 30 0.3)
          (golden_rhs 30)),
      {
        x_fnv = 0x3b24a2af28c9d6f0L;
        iterations = 5;
        residual = 0x3e9a508a5f2710eeL;
        kappa = 0x3ff3333333333335L;
        rounds = 435;
        phases = ledger ~cheb:5 ~sparsify:(Some 350);
        edges = 150;
      } );
    (* n = 160: sparsifiers that drop edges, so κ is no longer the 1.2
       floor and the Chebyshev loop runs ~20 iterations. *)
    ( "direct n=160",
      (fun () ->
        solve ~eps:1e-6 (Gen.weighted_gnp ~seed:45L 160 0.3 8) (golden_rhs 160)),
      {
        x_fnv = 0xfe7604e0ecda06cbL;
        iterations = 20;
        residual = 0x3e41b6b83a29d639L;
        kappa = 0x40148745ef4565f8L;
        rounds = 335;
        phases = ledger ~cheb:20 ~sparsify:(Some 235);
        edges = 3454;
      } );
    ( "iterative n=160",
      (fun () ->
        solve ~eps:1e-6 ~inner:Iterative
          (Gen.weighted_gnp ~seed:47L 160 0.3 8)
          (golden_rhs 160)),
      {
        x_fnv = 0x0cad5d979f814e68L;
        iterations = 22;
        residual = 0x3e36a644cbfbae63L;
        kappa = 0x40171661678a7402L;
        rounds = 332;
        phases = ledger ~cheb:22 ~sparsify:(Some 230);
        edges = 3257;
      } );
    ( "from sparsifier n=160",
      (fun () -> sparsified 48L 160 0.3 8),
      {
        x_fnv = 0xd09c8b325e4c1e32L;
        iterations = 20;
        residual = 0x3e450c34e3a2b6daL;
        kappa = 0x4014ba1b3541dcd3L;
        rounds = 100;
        phases = ledger ~cheb:20 ~sparsify:None;
        edges = 3491;
      } );
  ]

let test_golden_reports () =
  List.iter
    (fun (name, run, expected) ->
      let actual = golden_of (run ()) in
      if actual <> expected then
        Alcotest.failf "%s:\n  expected %s\n  actual   %s" name
          (pp_golden expected) (pp_golden actual))
    golden_cases

let suite =
  suite
  @ [ Alcotest.test_case "golden reports pinned" `Quick test_golden_reports ]
