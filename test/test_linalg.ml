(* Unit and property tests for the linear-algebra substrate. *)

(* [Gen] collides with [QCheck.Gen] inside the property block. *)
module Graph_gen = Gen

let approx ?(eps = 1e-8) a b = Float.abs (a -. b) <= eps

let check_float name eps expected actual =
  Alcotest.(check (float eps)) name expected actual

(* Fresh-destination forms of the [_into] kernels that have no allocating
   twin in the library. *)
let vec_add x y =
  let dst = Linalg.Vec.create (Linalg.Vec.dim x) in
  Linalg.Vec.add_into x y dst;
  dst

let csr_mul a x =
  let y = Linalg.Vec.create (Linalg.Csr.rows a) in
  Linalg.Csr.mul_vec_into a x y;
  y

(* The grounded convention on the workspace Chebyshev kernel: center [b],
   iterate, center [x]. *)
let cheb_grounded ~tol ~apply_a_into ~solve_b_into ~kappa b =
  let ws = Linalg.Chebyshev.Workspace.create (Linalg.Vec.dim b) in
  let st =
    Linalg.Chebyshev.solve_into ~tol ~apply_a_into ~solve_b_into ~kappa ws
      (Linalg.Vec.center b)
  in
  (Linalg.Vec.center ws.Linalg.Chebyshev.Workspace.x, st)

(* An allocating operator as an [_into] one. *)
let into f src dst = Linalg.Vec.copy_into (f src) dst

(* ------------------------------------------------------------------ Vec *)

let test_vec_basic () =
  let x = Linalg.Vec.of_list [ 1.; 2.; 3. ] in
  let y = Linalg.Vec.of_list [ 4.; 5.; 6. ] in
  check_float "dot" 1e-12 32. (Linalg.Vec.dot x y);
  check_float "norm2" 1e-12 (sqrt 14.) (Linalg.Vec.norm2 x);
  Alcotest.(check bool)
    "add" true
    (Linalg.Vec.equal (vec_add x y) (Linalg.Vec.of_list [ 5.; 7.; 9. ]));
  Alcotest.(check bool)
    "axpy" true
    (Linalg.Vec.equal
       (Linalg.Vec.axpy 2. x y)
       (Linalg.Vec.of_list [ 6.; 9.; 12. ]));
  check_float "norm_inf" 1e-12 3. (Linalg.Vec.norm_inf x)

let test_vec_center () =
  let x = Linalg.Vec.of_list [ 1.; 2.; 3.; 6. ] in
  let c = Linalg.Vec.center x in
  check_float "mean removed" 1e-12 0. (Linalg.Vec.sum c)

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Linalg.Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_vec_basis () =
  let e1 = Linalg.Vec.basis 4 1 in
  check_float "basis entry" 1e-15 1. e1.(1);
  check_float "basis sum" 1e-15 1. (Linalg.Vec.sum e1)

(* ---------------------------------------------------------------- Dense *)

let test_cholesky_roundtrip () =
  (* SPD matrix: A = Mᵀ M + I for a fixed M *)
  let n = 6 in
  let m =
    Linalg.Dense.init n (fun i j ->
        float_of_int (((i * 7) + (j * 3)) mod 5) /. 5.)
  in
  let a =
    Linalg.Dense.add (Linalg.Dense.mul (Linalg.Dense.transpose m) m)
      (Linalg.Dense.identity n)
  in
  let b = Linalg.Vec.init n (fun i -> float_of_int (i + 1)) in
  let x = Linalg.Dense.solve_spd a b in
  let r = Linalg.Vec.sub (Linalg.Dense.mul_vec a x) b in
  Alcotest.(check bool) "residual small" true (Linalg.Vec.norm2 r < 1e-9)

let test_cholesky_rejects_indefinite () =
  let a = [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  (* eigenvalues 3, −1 *)
  Alcotest.(check bool)
    "raises" true
    (try
       ignore (Linalg.Dense.cholesky a);
       false
     with Failure _ -> true)

let test_inverse_spd () =
  let a = [| [| 4.; 1.; 0. |]; [| 1.; 3.; 1. |]; [| 0.; 1.; 2. |] |] in
  let inv = Linalg.Dense.inverse_spd a in
  let prod = Linalg.Dense.mul a inv in
  let id = Linalg.Dense.identity 3 in
  let err = ref 0. in
  for i = 0 to 2 do
    for j = 0 to 2 do
      err := Float.max !err (Float.abs (prod.(i).(j) -. id.(i).(j)))
    done
  done;
  Alcotest.(check bool) "A·A⁻¹ = I" true (!err < 1e-10)

let test_solve_grounded () =
  (* Path graph Laplacian on 4 vertices; solve L x = b with b ⊥ 1. *)
  let g = Gen.path 4 in
  let l = Graph.laplacian_dense g in
  let b = Linalg.Vec.of_list [ 1.; 0.; 0.; -1. ] in
  let x = Linalg.Dense.solve_grounded l b in
  let r = Linalg.Vec.sub (Linalg.Dense.mul_vec l x) b in
  Alcotest.(check bool) "Lx = b" true (Linalg.Vec.norm2 r < 1e-8);
  check_float "x centered" 1e-9 0. (Linalg.Vec.sum x)

let test_power_iteration () =
  let a = [| [| 2.; 0. |]; [| 0.; 5. |] |] in
  let lambda, v = Linalg.Dense.power_iteration (Linalg.Dense.mul_vec a) 2 in
  check_float "dominant eigenvalue" 1e-6 5. lambda;
  Alcotest.(check bool) "eigvec aligned" true (Float.abs v.(1) > 0.99)

let test_eig_bounds () =
  let a = [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  (* eigenvalues 1 and 3 *)
  let lo, hi = Linalg.Dense.eig_bounds_spd a in
  Alcotest.(check bool) "lo <= 1" true (lo <= 1. +. 1e-6);
  Alcotest.(check bool) "lo near 1" true (lo > 0.9);
  Alcotest.(check bool) "hi >= 3" true (hi >= 3. -. 1e-9)

(* ------------------------------------------------------------------ Csr *)

let test_csr_build () =
  let a =
    Linalg.Csr.of_triplets ~rows:3 ~cols:3
      [ (0, 0, 1.); (0, 2, 2.); (2, 1, -1.); (0, 2, 3.); (1, 1, 0.) ]
  in
  Alcotest.(check int) "nnz merges dups, drops zeros" 3 (Linalg.Csr.nnz a);
  check_float "merged value" 1e-12 5. (Linalg.Csr.get a 0 2);
  check_float "absent is 0" 1e-12 0. (Linalg.Csr.get a 1 1)

let test_csr_matvec () =
  let a =
    Linalg.Csr.of_triplets ~rows:2 ~cols:3
      [ (0, 0, 1.); (0, 1, 2.); (1, 2, 4.) ]
  in
  let y = csr_mul a [| 1.; 1.; 1. |] in
  Alcotest.(check bool)
    "Ax" true
    (Linalg.Vec.equal y (Linalg.Vec.of_list [ 3.; 4. ]));
  let z = Linalg.Csr.mul_vec_transpose a [| 1.; 1. |] in
  Alcotest.(check bool)
    "Aᵀx" true
    (Linalg.Vec.equal z (Linalg.Vec.of_list [ 1.; 2.; 4. ]))

let test_csr_transpose_dense_roundtrip () =
  let d = [| [| 0.; 1.; 0. |]; [| 2.; 0.; 3. |]; [| 0.; 0.; 4. |] |] in
  let a = Linalg.Csr.of_dense d in
  let back = Linalg.Csr.to_dense (Linalg.Csr.transpose (Linalg.Csr.transpose a)) in
  Alcotest.(check bool)
    "transpose involution" true
    (back = d)

let test_csr_laplacian_symmetry () =
  let g = Gen.connected_gnp ~seed:7L 20 0.2 in
  let l = Graph.laplacian g in
  Alcotest.(check bool) "symmetric" true (Linalg.Csr.is_symmetric l);
  (* Row sums of a Laplacian vanish. *)
  let ones = Linalg.Vec.constant 20 1. in
  let y = csr_mul l ones in
  Alcotest.(check bool) "L·1 = 0" true (Linalg.Vec.norm2 y < 1e-9)

(* ------------------------------------------------------------------- Cg *)

let test_cg_solves_spd () =
  let a = [| [| 4.; 1.; 0. |]; [| 1.; 3.; 1. |]; [| 0.; 1.; 2. |] |] in
  let b = [| 1.; 2.; 3. |] in
  let x, st = Linalg.Cg.solve (Linalg.Dense.mul_vec a) b in
  Alcotest.(check bool) "converged" true st.Linalg.Cg.converged;
  let r = Linalg.Vec.sub (Linalg.Dense.mul_vec a x) b in
  Alcotest.(check bool) "residual" true (Linalg.Vec.norm2 r < 1e-8)

let test_cg_grounded_laplacian () =
  let g = Gen.connected_gnp ~seed:3L 30 0.15 in
  let b = Linalg.Vec.center (Linalg.Vec.init 30 (fun i -> float_of_int (i mod 5))) in
  let x, st = Linalg.Cg.solve_grounded (Graph.apply_laplacian g) b in
  Alcotest.(check bool) "converged" true st.Linalg.Cg.converged;
  let r = Linalg.Vec.sub (Graph.apply_laplacian g x) b in
  Alcotest.(check bool) "residual" true (Linalg.Vec.norm2 r < 1e-7)

(* ------------------------------------------------------------ Chebyshev *)

let test_chebyshev_identity_preconditioner () =
  (* With B = A the iteration converges immediately (κ = 1 ⇒ spectrum
     collapses to a point). *)
  let a = [| [| 2.; 0. |]; [| 0.; 2. |] |] in
  let ws = Linalg.Chebyshev.Workspace.create 2 in
  let st =
    Linalg.Chebyshev.solve_into
      ~apply_a_into:(Linalg.Dense.mul_vec_into a)
      ~solve_b_into:(Linalg.Vec.scale_into 0.5)
      ~kappa:1.0 ws [| 2.; 4. |]
  in
  let x = ws.Linalg.Chebyshev.Workspace.x in
  Alcotest.(check bool) "converged" true st.Linalg.Chebyshev.converged;
  Alcotest.(check bool)
    "solution" true
    (Linalg.Vec.equal ~eps:1e-8 x (Linalg.Vec.of_list [ 1.; 2. ]))

let test_chebyshev_laplacian_with_sparsifier_identity () =
  (* Solve L x = b with the exact grounded solve as preconditioner. *)
  let g = Gen.connected_gnp ~seed:11L 25 0.2 in
  let l = Graph.laplacian_dense g in
  let b =
    Linalg.Vec.center (Linalg.Vec.init 25 (fun i -> float_of_int ((i * 3) mod 7)))
  in
  let x, st =
    cheb_grounded
      ~apply_a_into:(Graph.apply_laplacian_into g)
      ~solve_b_into:
        (into (fun v -> Linalg.Dense.solve_grounded l (Linalg.Vec.center v)))
      ~kappa:1.0 ~tol:1e-10 b
  in
  Alcotest.(check bool) "converged" true st.Linalg.Chebyshev.converged;
  let r = Linalg.Vec.sub (Graph.apply_laplacian g x) b in
  Alcotest.(check bool) "residual" true (Linalg.Vec.norm2 r < 1e-7)

let test_chebyshev_iteration_bound_scaling () =
  (* Iteration bound grows like √κ·log(1/ε). *)
  let b1 = Linalg.Chebyshev.iteration_bound ~kappa:4. ~eps:1e-6 in
  let b2 = Linalg.Chebyshev.iteration_bound ~kappa:16. ~eps:1e-6 in
  Alcotest.(check bool) "doubling κ quadruples... doubles bound" true
    (float_of_int b2 /. float_of_int b1 < 2.3
    && float_of_int b2 /. float_of_int b1 > 1.7);
  let b3 = Linalg.Chebyshev.iteration_bound ~kappa:4. ~eps:1e-12 in
  Alcotest.(check bool) "eps scaling" true
    (float_of_int b3 /. float_of_int b1 < 2.2
    && float_of_int b3 /. float_of_int b1 > 1.6)

(* --------------------------------------------------------------- QCheck *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"vec add commutative" ~count:100
      (pair (list_of_size (Gen.return 8) (float_bound_exclusive 100.))
         (list_of_size (Gen.return 8) (float_bound_exclusive 100.)))
      (fun (xs, ys) ->
        let x = Linalg.Vec.of_list xs and y = Linalg.Vec.of_list ys in
        Linalg.Vec.equal (vec_add x y) (vec_add y x));
    Test.make ~name:"dot Cauchy-Schwarz" ~count:100
      (pair (list_of_size (Gen.return 8) (float_bound_exclusive 100.))
         (list_of_size (Gen.return 8) (float_bound_exclusive 100.)))
      (fun (xs, ys) ->
        let x = Linalg.Vec.of_list xs and y = Linalg.Vec.of_list ys in
        Float.abs (Linalg.Vec.dot x y)
        <= (Linalg.Vec.norm2 x *. Linalg.Vec.norm2 y) +. 1e-6);
    Test.make ~name:"laplacian PSD on random graphs" ~count:50
      (pair small_nat (list_of_size (Gen.return 12) (float_bound_exclusive 10.)))
      (fun (seed, xs) ->
        let g = Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 1)) 12 0.3 in
        let x = Linalg.Vec.of_list xs in
        Graph.quadratic_form g x >= -1e-9);
    Test.make ~name:"csr matvec matches dense" ~count:50
      small_nat
      (fun seed ->
        let g = Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 100)) 10 0.4 in
        let l = Graph.laplacian g in
        let d = Graph.laplacian_dense g in
        let x = Linalg.Vec.init 10 (fun i -> float_of_int ((i + seed) mod 4)) in
        Linalg.Vec.equal ~eps:1e-9 (csr_mul l x) (Linalg.Dense.mul_vec d x));
  ]

let suite =
  [
    Alcotest.test_case "vec basic ops" `Quick test_vec_basic;
    Alcotest.test_case "vec center" `Quick test_vec_center;
    Alcotest.test_case "vec dim mismatch" `Quick test_vec_mismatch;
    Alcotest.test_case "vec basis" `Quick test_vec_basis;
    Alcotest.test_case "cholesky roundtrip" `Quick test_cholesky_roundtrip;
    Alcotest.test_case "cholesky rejects indefinite" `Quick
      test_cholesky_rejects_indefinite;
    Alcotest.test_case "inverse spd" `Quick test_inverse_spd;
    Alcotest.test_case "grounded laplacian solve" `Quick test_solve_grounded;
    Alcotest.test_case "power iteration" `Quick test_power_iteration;
    Alcotest.test_case "eig bounds" `Quick test_eig_bounds;
    Alcotest.test_case "csr build" `Quick test_csr_build;
    Alcotest.test_case "csr matvec" `Quick test_csr_matvec;
    Alcotest.test_case "csr transpose roundtrip" `Quick
      test_csr_transpose_dense_roundtrip;
    Alcotest.test_case "laplacian csr symmetric" `Quick
      test_csr_laplacian_symmetry;
    Alcotest.test_case "cg solves spd" `Quick test_cg_solves_spd;
    Alcotest.test_case "cg grounded laplacian" `Quick test_cg_grounded_laplacian;
    Alcotest.test_case "chebyshev identity preconditioner" `Quick
      test_chebyshev_identity_preconditioner;
    Alcotest.test_case "chebyshev exact preconditioner" `Quick
      test_chebyshev_laplacian_with_sparsifier_identity;
    Alcotest.test_case "chebyshev iteration bound scaling" `Quick
      test_chebyshev_iteration_bound_scaling;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests



(* --------------------------------------------------- additional coverage *)

let test_vec_scale_zero () =
  let x = Linalg.Vec.of_list [ 1.; -2.; 3. ] in
  Alcotest.(check bool) "zeroed" true
    (Linalg.Vec.equal (Linalg.Vec.scale 0. x) (Linalg.Vec.create 3))

let test_vec_normalize_zero_vector () =
  let z = Linalg.Vec.create 4 in
  Alcotest.(check bool) "unchanged" true
    (Linalg.Vec.equal (Linalg.Vec.normalize z) z)

let test_vec_dist2 () =
  let x = Linalg.Vec.of_list [ 0.; 0. ] and y = Linalg.Vec.of_list [ 3.; 4. ] in
  Alcotest.(check (float 1e-12)) "3-4-5" 5. (Linalg.Vec.dist2 x y)

let test_vec_map2 () =
  let x = Linalg.Vec.of_list [ 1.; 2. ] and y = Linalg.Vec.of_list [ 3.; 4. ] in
  Alcotest.(check bool) "pointwise product" true
    (Linalg.Vec.equal (Linalg.Vec.map2 ( *. ) x y) (Linalg.Vec.of_list [ 3.; 8. ]))

let test_dense_transpose_mul () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let at = Linalg.Dense.transpose a in
  Alcotest.(check (float 1e-12)) "transposed entry" 3. at.(0).(1);
  let prod = Linalg.Dense.mul a (Linalg.Dense.identity 2) in
  Alcotest.(check bool) "A·I = A" true (prod = a)

let test_dense_symmetry_check () =
  Alcotest.(check bool) "symmetric" true
    (Linalg.Dense.is_symmetric [| [| 1.; 2. |]; [| 2.; 1. |] |]);
  Alcotest.(check bool) "asymmetric" false
    (Linalg.Dense.is_symmetric [| [| 1.; 2. |]; [| 3.; 1. |] |])

let test_solve_grounded_tiny () =
  (* n = 1: L = [0]; only solution is x = 0. *)
  Alcotest.(check bool) "singleton" true
    (Linalg.Dense.solve_grounded [| [| 0. |] |] [| 0. |] = [| 0. |])

let test_cholesky_shift_rescues_psd () =
  (* A singular PSD matrix factors once shifted. *)
  let a = [| [| 1.; -1. |]; [| -1.; 1. |] |] in
  let l = Linalg.Dense.cholesky ~shift:1e-9 a in
  Alcotest.(check bool) "factored" true (Array.length l = 2)

let test_cg_max_iters_respected () =
  let a = Gen.expander 40 6 in
  let b = Linalg.Vec.center (Linalg.Vec.basis 40 0) in
  let _, st =
    Linalg.Cg.solve ~max_iters:3 (Graph.apply_laplacian a) b
  in
  Alcotest.(check bool) "stopped at cap" true (st.Linalg.Cg.iterations <= 3)

let test_chebyshev_respects_max_iters () =
  let a = [| [| 3.; 1. |]; [| 1.; 2. |] |] in
  let st =
    Linalg.Chebyshev.solve_into ~max_iters:2 ~tol:1e-30
      ~apply_a_into:(Linalg.Dense.mul_vec_into a)
      ~solve_b_into:Linalg.Vec.copy_into ~kappa:10.
      (Linalg.Chebyshev.Workspace.create 2)
      [| 1.; 1. |]
  in
  Alcotest.(check int) "two iterations" 2 st.Linalg.Chebyshev.iterations

let test_chebyshev_operator_property () =
  (* Theorem 2.2 property 1: Z ≈ A† as an operator — apply to several
     right-hand sides and compare with the true pseudoinverse. *)
  let g = Graph_gen.connected_gnp ~seed:51L 20 0.35 in
  let l = Graph.laplacian_dense g in
  let solve_exact b = Linalg.Dense.solve_grounded l b in
  List.iter
    (fun i ->
      let b = Linalg.Vec.center (Linalg.Vec.basis 20 i) in
      let z_b, _ =
        cheb_grounded
          ~apply_a_into:(Graph.apply_laplacian_into g)
          ~solve_b_into:(into solve_exact) ~kappa:1.0 ~tol:1e-10 b
      in
      let x = solve_exact b in
      if not (Linalg.Vec.equal ~eps:1e-6 z_b x) then
        Alcotest.failf "operator deviates on basis vector %d" i)
    [ 0; 5; 12; 19 ]

let more_qcheck =
  let open QCheck in
  [
    Test.make ~name:"scale distributes over add" ~count:80
      (triple (float_bound_exclusive 10.)
         (list_of_size (Gen.return 6) (float_bound_exclusive 10.))
         (list_of_size (Gen.return 6) (float_bound_exclusive 10.)))
      (fun (a, xs, ys) ->
        let x = Linalg.Vec.of_list xs and y = Linalg.Vec.of_list ys in
        Linalg.Vec.equal ~eps:1e-6
          (Linalg.Vec.scale a (vec_add x y))
          (vec_add (Linalg.Vec.scale a x) (Linalg.Vec.scale a y)));
    Test.make ~name:"center is idempotent" ~count:80
      (list_of_size (Gen.return 7) (float_bound_exclusive 50.))
      (fun xs ->
        let x = Linalg.Vec.of_list xs in
        Linalg.Vec.equal ~eps:1e-9 (Linalg.Vec.center x)
          (Linalg.Vec.center (Linalg.Vec.center x)));
    Test.make ~name:"csr add = dense add" ~count:40 small_nat
      (fun seed ->
        let g1 = Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 300)) 8 0.4 in
        let g2 = Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 301)) 8 0.4 in
        let a = Graph.laplacian g1 and b = Graph.laplacian g2 in
        Linalg.Csr.to_dense (Linalg.Csr.add a b)
        = Linalg.Dense.add (Graph.laplacian_dense g1) (Graph.laplacian_dense g2));
    Test.make ~name:"csr scale commutes with matvec" ~count:40 small_nat
      (fun seed ->
        let g = Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 302)) 9 0.4 in
        let a = Graph.laplacian g in
        let x = Linalg.Vec.init 9 (fun i -> float_of_int ((i * 3) mod 5)) in
        Linalg.Vec.equal ~eps:1e-9
          (csr_mul (Linalg.Csr.scale 2.5 a) x)
          (Linalg.Vec.scale 2.5 (csr_mul a x)));
    Test.make ~name:"grounded solve really solves" ~count:30 small_nat
      (fun seed ->
        let g = Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 303)) 10 0.4 in
        let b = Linalg.Vec.center (Linalg.Vec.init 10 (fun i -> float_of_int (seed + i))) in
        let x = Linalg.Dense.solve_grounded (Graph.laplacian_dense g) b in
        Linalg.Vec.dist2 (Graph.apply_laplacian g x) b < 1e-6);
  ]

let suite =
  suite
  @ [
      Alcotest.test_case "vec scale zero" `Quick test_vec_scale_zero;
      Alcotest.test_case "vec normalize zero" `Quick
        test_vec_normalize_zero_vector;
      Alcotest.test_case "vec dist2" `Quick test_vec_dist2;
      Alcotest.test_case "vec map2" `Quick test_vec_map2;
      Alcotest.test_case "dense transpose/mul" `Quick test_dense_transpose_mul;
      Alcotest.test_case "dense symmetry check" `Quick test_dense_symmetry_check;
      Alcotest.test_case "grounded solve singleton" `Quick
        test_solve_grounded_tiny;
      Alcotest.test_case "cholesky shift" `Quick test_cholesky_shift_rescues_psd;
      Alcotest.test_case "cg max iters" `Quick test_cg_max_iters_respected;
      Alcotest.test_case "chebyshev max iters" `Quick
        test_chebyshev_respects_max_iters;
      Alcotest.test_case "chebyshev operator property" `Quick
        test_chebyshev_operator_property;
    ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) more_qcheck

(* ------------------------------------- zero-allocation workspace kernels *)

(* Verbatim copies of the pre-workspace (allocating) CG and Chebyshev
   implementations: the differential oracle pinning the refactored
   kernels to bit-identical arithmetic on real instances. The seed's
   in-place [axpy_inplace a x y] is spelled [axpy_into a x y y]. *)
module Seed_cg = struct
  let solve ?max_iters ?(tol = 1e-10) ?x0 apply b =
    let open Linalg in
    let n = Vec.dim b in
    let max_iters = match max_iters with Some k -> k | None -> 10 * n in
    let x = match x0 with Some x -> Vec.copy x | None -> Vec.create n in
    let r = Vec.sub b (apply x) in
    let p = Vec.copy r in
    let rs = ref (Vec.dot r r) in
    let nb = Vec.norm2 b in
    let target = tol *. Float.max nb 1e-300 in
    let iters = ref 0 in
    (try
       while !iters < max_iters && sqrt !rs > target do
         let ap = apply p in
         let pap = Vec.dot p ap in
         if pap <= 0. then raise Exit;
         let alpha = !rs /. pap in
         Vec.axpy_into alpha p x x;
         Vec.axpy_into (-.alpha) ap r r;
         let rs' = Vec.dot r r in
         let beta = rs' /. !rs in
         for i = 0 to n - 1 do
           p.(i) <- r.(i) +. (beta *. p.(i))
         done;
         rs := rs';
         incr iters
       done
     with Exit -> ());
    let residual = sqrt !rs in
    ( x,
      {
        Linalg.Cg.iterations = !iters;
        residual;
        converged = residual <= target;
      } )
end

module Seed_cheb = struct
  let solve ?max_iters ?(tol = 1e-10) ~apply_a ~solve_b ~kappa b =
    let open Linalg in
    let n = Vec.dim b in
    let max_iters =
      match max_iters with
      | Some k -> k
      | None -> Chebyshev.iteration_bound ~kappa ~eps:tol
    in
    let lmin = 1. /. Float.max kappa 1. in
    let lmax = 1. in
    let theta = (lmax +. lmin) /. 2. in
    let delta = (lmax -. lmin) /. 2. in
    let sigma1 = theta /. delta in
    let x = Vec.create n in
    let r = Vec.copy b in
    let nb = Float.max (Vec.norm2 b) 1e-300 in
    let z = solve_b r in
    let d = Vec.scale (1. /. theta) z in
    let rho_prev = ref (1. /. sigma1) in
    let iters = ref 0 in
    let residual = ref (Vec.norm2 r /. nb) in
    (try
       while !iters < max_iters do
         Vec.axpy_into 1. d x x;
         let ad = apply_a d in
         Vec.axpy_into (-1.) ad r r;
         residual := Vec.norm2 r /. nb;
         incr iters;
         if !residual <= tol then raise Exit;
         let z = solve_b r in
         let rho = 1. /. ((2. *. sigma1) -. !rho_prev) in
         let c1 = rho *. !rho_prev in
         let c2 = 2. *. rho /. delta in
         for i = 0 to n - 1 do
           d.(i) <- (c1 *. d.(i)) +. (c2 *. z.(i))
         done;
         rho_prev := rho
       done
     with Exit -> ());
    ( x,
      {
        Linalg.Chebyshev.iterations = !iters;
        residual = !residual;
        converged = !residual <= tol;
      } )
end

(* Bitwise equality: structural (=) on float arrays compares words, which
   is exactly the "bit-identical" contract (no NaNs arise here). *)
let bitwise name a b = Alcotest.(check bool) name true (a = b)

let test_into_kernels_differential () =
  let open Linalg in
  let x = Vec.init 17 (fun i -> sin (float_of_int (i + 1))) in
  let y = Vec.init 17 (fun i -> cos (float_of_int (3 * i)) *. 2.5) in
  let dst = Vec.create 17 in
  Vec.add_into x y dst;
  bitwise "add_into" (Vec.map2 ( +. ) x y) dst;
  Vec.sub_into x y dst;
  bitwise "sub_into" (Vec.sub x y) dst;
  Vec.scale_into 0.7 x dst;
  bitwise "scale_into" (Vec.scale 0.7 x) dst;
  Vec.axpy_into 1.3 x y dst;
  bitwise "axpy_into" (Vec.axpy 1.3 x y) dst;
  Vec.copy_into x dst;
  bitwise "copy_into" x dst;
  Vec.fill dst 0.25;
  bitwise "fill" (Vec.init 17 (fun _ -> 0.25)) dst;
  Vec.center_into x dst;
  bitwise "center_into" (Vec.center x) dst;
  (* aliasing src = dst is allowed *)
  let z = Vec.copy x in
  Vec.center_into z z;
  bitwise "center_into aliased" (Vec.center x) z

let test_matvec_into_differential () =
  let open Linalg in
  let g = Graph_gen.connected_gnp ~seed:11L 14 0.35 in
  let d = Graph.laplacian_dense g in
  let x = Vec.init 14 (fun i -> float_of_int ((i * 5) mod 7) -. 2.) in
  let dst = Vec.create 14 in
  Dense.mul_vec_into d x dst;
  bitwise "dense mul_vec_into" (Dense.mul_vec d x) dst;
  let gdst = Vec.create 14 in
  Graph.apply_laplacian_into g x gdst;
  bitwise "apply_laplacian_into" (Graph.apply_laplacian g x) gdst

let test_cholesky_solve_into_differential () =
  let open Linalg in
  let n = 7 in
  let m =
    Dense.init n (fun i j -> float_of_int (((i * 5) + (j * 2)) mod 6) /. 6.)
  in
  let a = Dense.add (Dense.mul (Dense.transpose m) m) (Dense.identity n) in
  let chol = Dense.cholesky a in
  let b = Vec.init n (fun i -> float_of_int (i - 3)) in
  let scratch = Vec.create n in
  let x = Vec.create n in
  Dense.cholesky_solve_into chol b scratch x;
  bitwise "cholesky_solve_into" (Dense.cholesky_solve chol b) x

let test_normalize_is_a_copy () =
  let open Linalg in
  (* The seed returned the *input* when ‖x‖ = 0, so callers mutating the
     "fresh" result corrupted their argument. Both branches must copy. *)
  let z = Vec.create 4 in
  let nz = Vec.normalize z in
  Alcotest.(check bool) "zero branch is fresh" false (nz == z);
  nz.(0) <- 42.;
  check_float "input untouched" 0. 0. z.(0);
  let x = Vec.of_list [ 3.; 4. ] in
  let nx = Vec.normalize x in
  Alcotest.(check bool) "nonzero branch is fresh" false (nx == x);
  check_float "unit norm" 1e-12 1. (Vec.norm2 nx);
  check_float "input untouched" 1e-12 3. x.(0)

let test_cg_bit_identical_to_seed () =
  let open Linalg in
  List.iter
    (fun (seed, n, p) ->
      let g = Graph_gen.connected_gnp ~seed:(Int64.of_int seed) n p in
      let b =
        Vec.center (Vec.init n (fun i -> float_of_int ((i * 13) mod 9) -. 4.))
      in
      let apply = Graph.apply_laplacian g in
      let x_seed, st_seed = Seed_cg.solve apply b in
      let x_new, st_new = Cg.solve apply b in
      bitwise (Printf.sprintf "cg x (seed %d)" seed) x_seed x_new;
      Alcotest.(check bool)
        (Printf.sprintf "cg stats (seed %d)" seed)
        true
        (st_seed = st_new))
    [ (1, 12, 0.4); (2, 25, 0.25); (3, 40, 0.15); (9, 18, 0.5) ]

let test_chebyshev_bit_identical_to_seed () =
  let open Linalg in
  List.iter
    (fun (seed, n) ->
      let g = Graph_gen.connected_gnp ~seed:(Int64.of_int seed) n 0.3 in
      let b = Vec.center (Vec.init n (fun i -> sin (float_of_int (i + seed)))) in
      (* Identity-style preconditioner (kept centered): convergence quality
         is irrelevant here, only arithmetic identity. *)
      let kappa = 64. in
      let x_seed, st_seed =
        Seed_cheb.solve ~max_iters:30 ~apply_a:(Graph.apply_laplacian g)
          ~solve_b:(fun r -> Vec.center (Vec.scale 0.125 r))
          ~kappa b
      in
      let ws = Chebyshev.Workspace.create n in
      let st_new =
        Chebyshev.solve_into ~max_iters:30
          ~apply_a_into:(Graph.apply_laplacian_into g)
          ~solve_b_into:(fun r dst ->
            Vec.scale_into 0.125 r dst;
            Vec.center_into dst dst)
          ~kappa ws b
      in
      let x_new = ws.Chebyshev.Workspace.x in
      bitwise (Printf.sprintf "cheb x (seed %d)" seed) x_seed x_new;
      Alcotest.(check bool)
        (Printf.sprintf "cheb stats (seed %d)" seed)
        true
        (st_seed = st_new))
    [ (4, 15); (5, 28); (6, 33) ]

(* Gc.minor_words delta-of-deltas: running k and k + 20 iterations of the
   workspace kernel must allocate exactly the same number of minor words —
   i.e. the steady-state loop allocates nothing. Bytecode boxes floats at
   every step, so the assertion is native-only. *)
let minor_words_delta f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_cg_iterations_allocate_nothing () =
  let open Linalg in
  if Sys.backend_type = Sys.Native then begin
    let g = Graph_gen.connected_gnp ~seed:21L 60 0.15 in
    let l = Graph.laplacian g in
    let b =
      Vec.center (Vec.init 60 (fun i -> float_of_int ((i * 7) mod 11) -. 5.))
    in
    let ws = Cg.Workspace.create 60 in
    let apply_into src dst = Csr.mul_vec_into l src dst in
    let run k = ignore (Cg.solve_into ~max_iters:k ~tol:0. ws apply_into b) in
    run 2 (* warm-up *);
    let d1 = minor_words_delta (fun () -> run 5) in
    let d2 = minor_words_delta (fun () -> run 25) in
    check_float "20 extra CG iterations allocate zero words" 0. 0. (d2 -. d1)
  end

let test_chebyshev_iterations_allocate_nothing () =
  let open Linalg in
  if Sys.backend_type = Sys.Native then begin
    let g = Graph_gen.connected_gnp ~seed:22L 60 0.15 in
    let l = Graph.laplacian g in
    let b =
      Vec.center (Vec.init 60 (fun i -> float_of_int ((i * 3) mod 13) -. 6.))
    in
    let ws = Chebyshev.Workspace.create 60 in
    let apply_a_into src dst = Csr.mul_vec_into l src dst in
    let solve_b_into src dst = Vec.scale_into 0.125 src dst in
    let run k =
      ignore
        (Chebyshev.solve_into ~max_iters:k ~tol:0. ~apply_a_into ~solve_b_into
           ~kappa:64. ws b)
    in
    run 2 (* warm-up *);
    let d1 = minor_words_delta (fun () -> run 5) in
    let d2 = minor_words_delta (fun () -> run 25) in
    check_float "20 extra Chebyshev iterations allocate zero words" 0. 0.
      (d2 -. d1)
  end

let suite =
  suite
  @ [
      Alcotest.test_case "into kernels differential" `Quick
        test_into_kernels_differential;
      Alcotest.test_case "matvec into differential" `Quick
        test_matvec_into_differential;
      Alcotest.test_case "cholesky solve into differential" `Quick
        test_cholesky_solve_into_differential;
      Alcotest.test_case "normalize returns a copy" `Quick
        test_normalize_is_a_copy;
      Alcotest.test_case "cg bit-identical to seed" `Quick
        test_cg_bit_identical_to_seed;
      Alcotest.test_case "chebyshev bit-identical to seed" `Quick
        test_chebyshev_bit_identical_to_seed;
      Alcotest.test_case "cg zero-alloc iterations" `Quick
        test_cg_iterations_allocate_nothing;
      Alcotest.test_case "chebyshev zero-alloc iterations" `Quick
        test_chebyshev_iterations_allocate_nothing;
    ]
