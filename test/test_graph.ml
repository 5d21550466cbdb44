(* Tests for the graph substrate: structures, generators, traversal,
   matching, Cole–Vishkin coloring. *)

module Graph_gen = Gen

let test_graph_create_validation () =
  Alcotest.(check bool)
    "self-loop rejected" true
    (try
       ignore (Graph.create 3 [ { Graph.u = 1; v = 1; w = 1. } ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool)
    "bad weight rejected" true
    (try
       ignore (Graph.create 3 [ { Graph.u = 0; v = 1; w = 0. } ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool)
    "out of range rejected" true
    (try
       ignore (Graph.create 3 [ { Graph.u = 0; v = 3; w = 1. } ]);
       false
     with Invalid_argument _ -> true)

let test_graph_degrees () =
  let g = Graph_gen.star 5 in
  Alcotest.(check int) "hub degree" 4 (Graph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Graph.degree g 1);
  Alcotest.(check (float 1e-12)) "weighted hub" 4. (Graph.weighted_degree g 0)

let test_graph_multigraph () =
  let g =
    Graph.create 2
      [ { Graph.u = 0; v = 1; w = 1. }; { Graph.u = 1; v = 0; w = 2. } ]
  in
  Alcotest.(check int) "two parallel edges" 2 (Graph.m g);
  Alcotest.(check (float 1e-12)) "weighted degree sums" 3.
    (Graph.weighted_degree g 0);
  let simple = Graph.simple_of_edges (Graph.n g) (Graph.edges g) in
  Alcotest.(check int) "collapsed" 1 (Graph.m simple);
  Alcotest.(check (float 1e-12)) "weights summed" 3.
    (Graph.edge simple 0).Graph.w

let test_laplacian_quadratic_form () =
  let g = Graph_gen.path 3 in
  (* x = (0, 1, 3): x'Lx = (0-1)² + (1-3)² = 5 *)
  Alcotest.(check (float 1e-12)) "quadratic form" 5.
    (Graph.quadratic_form g [| 0.; 1.; 3. |]);
  let lx = Graph.apply_laplacian g [| 0.; 1.; 3. |] in
  let expect = Linalg.Vec.create 3 in
  Linalg.Csr.mul_vec_into (Graph.laplacian g) [| 0.; 1.; 3. |] expect;
  Alcotest.(check bool) "apply matches csr" true (Linalg.Vec.equal lx expect)

let test_induced () =
  let g = Graph_gen.cycle 6 in
  let sub, map = Graph.induced g [| 0; 1; 2 |] in
  Alcotest.(check int) "sub vertices" 3 (Graph.n sub);
  Alcotest.(check int) "sub edges" 2 (Graph.m sub);
  Alcotest.(check int) "map" 2 map.(2)

let test_connectivity () =
  Alcotest.(check bool) "path connected" true
    (Graph.is_connected (Graph_gen.path 10));
  let disconnected =
    Graph.create 4 [ { Graph.u = 0; v = 1; w = 1. } ]
  in
  Alcotest.(check bool) "disconnected" false (Graph.is_connected disconnected);
  let _, k = Traversal.components disconnected in
  Alcotest.(check int) "three components" 3 k

let test_bfs () =
  let g = Graph_gen.grid 3 3 in
  let dist = Traversal.bfs g 0 in
  Alcotest.(check int) "corner to corner" 4 dist.(8);
  Alcotest.(check int) "adjacent" 1 dist.(1)

let test_spanning_forest () =
  let g = Graph_gen.connected_gnp ~seed:5L 30 0.2 in
  let forest = Traversal.spanning_forest g in
  Alcotest.(check int) "n-1 edges" 29 (List.length forest)

let test_unionfind () =
  let uf = Unionfind.create 5 in
  Alcotest.(check bool) "union" true (Unionfind.union uf 0 1);
  Alcotest.(check bool) "redundant union" false (Unionfind.union uf 1 0);
  Alcotest.(check bool) "same" true (Unionfind.same uf 0 1);
  Alcotest.(check int) "classes" 4 (Unionfind.count uf)

(* ---------------------------------------------------------------- Digraph *)

let test_digraph_basic () =
  let g =
    Digraph.create 3
      [
        { Digraph.src = 0; dst = 1; cap = 2; cost = 5 };
        { Digraph.src = 1; dst = 2; cap = 1; cost = 3 };
      ]
  in
  Alcotest.(check int) "out degree" 1 (Digraph.out_degree g 0);
  Alcotest.(check int) "in degree" 1 (Digraph.in_degree g 2);
  Alcotest.(check int) "max capacity" 2 (Digraph.max_capacity g);
  Alcotest.(check int) "max cost" 5 (Digraph.max_cost g);
  Alcotest.(check bool) "not unit" false (Digraph.is_unit_capacity g);
  let r = Digraph.reverse g in
  Alcotest.(check int) "reverse out" 1 (Digraph.out_degree r 2)

let test_digraph_underlying () =
  let g = Graph_gen.random_network ~seed:2L 10 20 5 in
  let u = Digraph.underlying g in
  Alcotest.(check int) "same edge count" (Digraph.m g) (Graph.m u)

(* ------------------------------------------------------------- Generators *)

let test_generators_sizes () =
  Alcotest.(check int) "path edges" 9 (Graph.m (Graph_gen.path 10));
  Alcotest.(check int) "cycle edges" 10 (Graph.m (Graph_gen.cycle 10));
  Alcotest.(check int) "complete edges" 45 (Graph.m (Graph_gen.complete 10));
  Alcotest.(check int) "grid vertices" 12 (Graph.n (Graph_gen.grid 3 4));
  Alcotest.(check int) "hypercube edges" 32
    (Graph.m (Graph_gen.hypercube 4));
  Alcotest.(check int) "bipartite edges" 12
    (Graph.m (Graph_gen.complete_bipartite 3 4))

let test_gnp_deterministic () =
  let a = Graph_gen.gnp ~seed:9L 20 0.3 in
  let b = Graph_gen.gnp ~seed:9L 20 0.3 in
  Alcotest.(check bool) "same seed same graph" true (Graph.equal_structure a b);
  let c = Graph_gen.gnp ~seed:10L 20 0.3 in
  Alcotest.(check bool) "different seed differs" false
    (Graph.equal_structure a c)

let test_even_gnp_all_even () =
  List.iter
    (fun seed ->
      let g = Graph_gen.even_gnp ~seed:(Int64.of_int seed) 31 0.2 in
      for v = 0 to Graph.n g - 1 do
        if Graph.degree g v land 1 = 1 then
          Alcotest.failf "odd degree at %d (seed %d)" v seed
      done)
    [ 1; 2; 3; 4; 5 ]

let test_cycle_union_even () =
  let g = Graph_gen.cycle_union ~seed:4L 20 5 in
  for v = 0 to 19 do
    Alcotest.(check bool)
      (Printf.sprintf "even degree at %d" v)
      true
      (Graph.degree g v land 1 = 0)
  done

let test_barbell_low_conductance () =
  let g = Graph_gen.barbell 8 in
  (* The single bridge edge gives conductance ≤ 1/vol(K8) *)
  let inside = Array.init 16 (fun v -> v < 8) in
  let phi = Expander.Conductance.of_cut g inside in
  Alcotest.(check bool) "bridge cut is sparse" true (phi < 0.02)

(* ------------------------------------------------------------ Cole–Vishkin *)

let ring_arrays k =
  let succ = Array.init k (fun i -> (i + 1) mod k) in
  let pred = Array.init k (fun i -> (i + k - 1) mod k) in
  (succ, pred)

(* The coloring chain is a node program now; run it on a fresh clique
   runtime (the communication schedule is exercised by test_runtime). *)
let three_color ~ids ~succ ~pred =
  let rt = Clique.Kernel.clique (Array.length ids) in
  Clique.Kernel.Sim_programs.three_color rt ~ids ~succ ~pred

let test_cv_three_coloring_ring () =
  List.iter
    (fun k ->
      let succ, pred = ring_arrays k in
      let ids = Array.init k (fun i -> (i * 7919) mod 104729) in
      (* ensure distinct *)
      let seen = Hashtbl.create k in
      Array.iteri
        (fun i id ->
          if Hashtbl.mem seen id then ids.(i) <- 104729 + i;
          Hashtbl.replace seen ids.(i) ())
        ids;
      let colors, rounds = three_color ~ids ~succ ~pred in
      Alcotest.(check bool)
        (Printf.sprintf "proper on ring %d" k)
        true
        (Coloring.is_proper colors ~succ);
      Array.iter
        (fun c ->
          if c < 0 || c > 2 then Alcotest.failf "color %d out of range" c)
        colors;
      (* O(log* n) + constant rounds; generous sanity bound. *)
      Alcotest.(check bool)
        (Printf.sprintf "rounds small on ring %d" k)
        true (rounds <= 12))
    [ 3; 4; 5; 16; 100; 1000 ]

let test_cv_two_cycle () =
  let succ = [| 1; 0 |] and pred = [| 1; 0 |] in
  let colors, _ = three_color ~ids:[| 17; 4 |] ~succ ~pred in
  Alcotest.(check bool) "distinct" true (colors.(0) <> colors.(1))

let test_cv_matching_maximal_on_ring () =
  List.iter
    (fun k ->
      let succ, pred = ring_arrays k in
      let ids = Array.init k (fun i -> i) in
      let colors, _ = three_color ~ids ~succ ~pred in
      let matched = Coloring.maximal_matching_on_cycles ~colors ~succ ~pred in
      (* No two adjacent matched edges: matched.(i) implies not
         matched.(succ i). *)
      Array.iteri
        (fun i m ->
          if m && matched.(succ.(i)) then
            Alcotest.failf "adjacent matched edges at %d" i)
        matched;
      (* Maximality: an unmatched edge must touch a matched one. *)
      Array.iteri
        (fun i m ->
          if not m then begin
            let touches =
              matched.(pred.(i)) || matched.(succ.(i)) || matched.(i)
            in
            if not touches then Alcotest.failf "matching not maximal at %d" i
          end)
        matched;
      (* At least a constant fraction matched on long rings. *)
      let count = Array.fold_left (fun a m -> if m then a + 1 else a) 0 matched in
      if k >= 16 then
        Alcotest.(check bool)
          (Printf.sprintf "fraction on ring %d" k)
          true
          (float_of_int count >= float_of_int k /. 4.))
    [ 4; 5; 16; 100; 333 ]

let test_log_star () =
  Alcotest.(check int) "log* 2" 1 (Coloring.log_star 2);
  Alcotest.(check int) "log* 16" 3 (Coloring.log_star 16);
  Alcotest.(check int) "log* 65536" 4 (Coloring.log_star 65536);
  Alcotest.(check bool) "log* huge small" true (Coloring.log_star max_int <= 5)

let test_greedy_matching () =
  let g = Graph_gen.connected_gnp ~seed:12L 40 0.1 in
  let m = Matching.maximal g in
  Alcotest.(check bool) "is matching" true (Matching.is_matching g m);
  Alcotest.(check bool) "is maximal" true (Matching.is_maximal g m)

(* --------------------------------------------------------------- QCheck *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"laplacian row sums vanish" ~count:60 small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 1)) 15 0.25
        in
        let y = Graph.apply_laplacian g (Linalg.Vec.constant 15 1.) in
        Linalg.Vec.norm2 y < 1e-9);
    Test.make ~name:"even_gnp always Eulerian-degree" ~count:40 small_nat
      (fun seed ->
        let g = Graph_gen.even_gnp ~seed:(Int64.of_int (seed + 7)) 17 0.3 in
        let ok = ref true in
        for v = 0 to 16 do
          if Graph.degree g v land 1 = 1 then ok := false
        done;
        !ok);
    Test.make ~name:"greedy matching maximal" ~count:40 small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 31)) 20 0.2
        in
        let m = Matching.maximal g in
        Matching.is_matching g m && Matching.is_maximal g m);
    Test.make ~name:"cv coloring proper on random rings" ~count:40
      (int_range 3 500)
      (fun k ->
        let succ = Array.init k (fun i -> (i + 1) mod k) in
        let pred = Array.init k (fun i -> (i + k - 1) mod k) in
        let ids = Array.init k (fun i -> (i * 31) + 7) in
        let colors, _ = three_color ~ids ~succ ~pred in
        Coloring.is_proper colors ~succ
        && Array.for_all (fun c -> c >= 0 && c <= 2) colors);
  ]

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_graph_create_validation;
    Alcotest.test_case "degrees" `Quick test_graph_degrees;
    Alcotest.test_case "multigraph" `Quick test_graph_multigraph;
    Alcotest.test_case "laplacian quadratic form" `Quick
      test_laplacian_quadratic_form;
    Alcotest.test_case "induced subgraph" `Quick test_induced;
    Alcotest.test_case "connectivity" `Quick test_connectivity;
    Alcotest.test_case "bfs distances" `Quick test_bfs;
    Alcotest.test_case "spanning forest" `Quick test_spanning_forest;
    Alcotest.test_case "union-find" `Quick test_unionfind;
    Alcotest.test_case "digraph basics" `Quick test_digraph_basic;
    Alcotest.test_case "digraph underlying" `Quick test_digraph_underlying;
    Alcotest.test_case "generator sizes" `Quick test_generators_sizes;
    Alcotest.test_case "gnp deterministic" `Quick test_gnp_deterministic;
    Alcotest.test_case "even_gnp parity" `Quick test_even_gnp_all_even;
    Alcotest.test_case "cycle_union parity" `Quick test_cycle_union_even;
    Alcotest.test_case "barbell conductance" `Quick
      test_barbell_low_conductance;
    Alcotest.test_case "cv 3-coloring rings" `Quick
      test_cv_three_coloring_ring;
    Alcotest.test_case "cv 2-cycle" `Quick test_cv_two_cycle;
    Alcotest.test_case "cv matching maximal" `Quick
      test_cv_matching_maximal_on_ring;
    Alcotest.test_case "log star" `Quick test_log_star;
    Alcotest.test_case "greedy matching" `Quick test_greedy_matching;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests

(* --------------------------------------------------- additional coverage *)

let test_union_and_scale () =
  let a = Graph_gen.path 4 in
  let b = Graph_gen.cycle 4 in
  let u = Graph.union a b in
  Alcotest.(check int) "edge union" (Graph.m a + Graph.m b) (Graph.m u);
  let s = Graph.scale_weights 3. a in
  Alcotest.(check (float 1e-12)) "scaled total" (3. *. Graph.total_weight a)
    (Graph.total_weight s)

let test_digraph_reverse_involution () =
  let g = Graph_gen.random_network ~seed:81L 12 25 5 in
  let rr = Digraph.reverse (Digraph.reverse g) in
  Alcotest.(check int) "same arcs" (Digraph.m g) (Digraph.m rr);
  Array.iteri
    (fun i a ->
      let b = Digraph.arc rr i in
      if a <> b then Alcotest.failf "arc %d changed" i)
    (Digraph.arcs g)

let test_layered_network_structure () =
  let g = Graph_gen.layered_network ~seed:82L 3 4 6 in
  let n = Digraph.n g in
  Alcotest.(check int) "vertex count" (3 * 4 + 2) n;
  (* Source reaches sink. *)
  let dist, _ = Traversal.bfs_digraph g 0 in
  Alcotest.(check bool) "sink reachable" true (dist.(n - 1) > 0)

let test_unit_bipartite_structure () =
  let g = Graph_gen.unit_bipartite ~seed:83L 5 0.4 in
  Alcotest.(check bool) "unit caps" true (Digraph.is_unit_capacity g);
  (* Every left vertex has at least one job arc (generator guarantees). *)
  for i = 1 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "left %d has options" i)
      true
      (Digraph.out_degree g i >= 1)
  done

let test_random_mcf_demand_feasible () =
  List.iter
    (fun seed ->
      let g, sigma = Graph_gen.random_mcf ~seed:(Int64.of_int seed) 10 25 8 in
      Alcotest.(check int) "sums to zero" 0 (Array.fold_left ( + ) 0 sigma);
      Alcotest.(check bool) "feasible by construction" true
        (Mcf_ssp.solve g ~sigma <> None))
    [ 11; 12; 13; 14 ]

let test_weighted_gnp_bounds () =
  let g = Graph_gen.weighted_gnp ~seed:84L 20 0.3 7 in
  Array.iter
    (fun e ->
      if e.Graph.w < 1. || e.Graph.w > 7. then
        Alcotest.failf "weight %g out of [1,7]" e.Graph.w)
    (Graph.edges g)

let test_circulant_regularity () =
  let g = Graph_gen.circulant 12 [ 1; 3 ] in
  for v = 0 to 11 do
    Alcotest.(check int) "4-regular" 4 (Graph.degree g v)
  done

let test_bfs_digraph_residual_mask () =
  let g =
    Digraph.create 3
      [
        { Digraph.src = 0; dst = 1; cap = 1; cost = 0 };
        { Digraph.src = 1; dst = 2; cap = 1; cost = 0 };
      ]
  in
  let dist, _ = Traversal.bfs_digraph g ~residual_cap:(fun id -> if id = 1 then 0 else 1) 0 in
  Alcotest.(check int) "blocked" (-1) dist.(2)

let test_sub_edges () =
  let g = Graph_gen.cycle 5 in
  let h = Graph.sub_edges g [ 0; 2 ] in
  Alcotest.(check int) "two edges kept" 2 (Graph.m h);
  Alcotest.(check int) "vertex set unchanged" 5 (Graph.n h)

(* Every weight that is not finite and positive is refused, by [create]
   and by [simple_of_edges] alike: NaN slipped past a [w <= 0.] test. *)
let test_non_finite_weights_rejected () =
  let raises what f =
    Alcotest.(check bool) what true
      (match f () with
      | (_ : Graph.t) -> false
      | exception Invalid_argument _ -> true)
  in
  List.iter
    (fun w ->
      let es = [ { Graph.u = 0; v = 1; w = 1. }; { Graph.u = 1; v = 2; w } ] in
      raises (Printf.sprintf "create refuses %g" w) (fun () ->
          Graph.create 3 es);
      raises (Printf.sprintf "simple_of_edges refuses %g" w) (fun () ->
          Graph.simple_of_edges 3 (Array.of_list es)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  raises "simple_of_edges refuses a sum overflowing to infinity" (fun () ->
      Graph.simple_of_edges 2
        [| { Graph.u = 0; v = 1; w = Float.max_float };
           { Graph.u = 1; v = 0; w = Float.max_float } |])

(* The SplitMix64 stream as it was with a boxed [mutable int64] state,
   verbatim: the in-place state must draw the same numbers. *)
module Boxed_prng = struct
  type t = { mutable state : int64 }

  let create seed = { state = seed }

  let golden = 0x9E3779B97F4A7C15L

  let next_int64 t =
    t.state <- Int64.add t.state golden;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
    (* Keep 62 bits so the value is non-negative as a native int. *)
    let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    v mod bound

  let float t bound =
    let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
    bound *. (v /. 9007199254740992.)

  let bool t = Int64.logand (next_int64 t) 1L = 1L

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
end

let test_prng_matches_boxed_state () =
  for seed = 0 to 1199 do
    let seed = Int64.of_int ((seed * 7919) - 3000) in
    let a = Prng.create seed and b = Boxed_prng.create seed in
    for i = 1 to 12 do
      if Prng.int a (1 + (i * 97)) <> Boxed_prng.int b (1 + (i * 97)) then
        Alcotest.failf "int differs at seed %Ld" seed;
      if
        Int64.bits_of_float (Prng.float a 3.5)
        <> Int64.bits_of_float (Boxed_prng.float b 3.5)
      then Alcotest.failf "float differs at seed %Ld" seed;
      if Prng.bool a <> Boxed_prng.bool b then
        Alcotest.failf "bool differs at seed %Ld" seed;
      if Prng.next_int64 a <> Boxed_prng.next_int64 b then
        Alcotest.failf "next_int64 differs at seed %Ld" seed
    done;
    let xa = Array.init 20 Fun.id and xb = Array.init 20 Fun.id in
    Prng.shuffle a xa;
    Boxed_prng.shuffle b xb;
    if xa <> xb then Alcotest.failf "shuffle differs at seed %Ld" seed
  done

(* A float draw allocates its boxed result and nothing else; an int draw
   allocates nothing. Native only, like the other word-counting tests. *)
let test_prng_draw_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let r = Prng.create 9L in
    let draws = 10_000 in
    let acc = ref 0. in
    let w0 = Gc.minor_words () in
    for _ = 1 to draws do
      acc := !acc +. Prng.float r 1.
    done;
    let per_draw = (Gc.minor_words () -. w0) /. float_of_int draws in
    Alcotest.(check bool)
      (Printf.sprintf "%.2f words per float draw (<= 2)" per_draw)
      true (per_draw <= 2.);
    let k = ref 0 in
    let w0 = Gc.minor_words () in
    for _ = 1 to draws do
      k := !k + Prng.int r 1000
    done;
    let per_draw = (Gc.minor_words () -. w0) /. float_of_int draws in
    Alcotest.(check bool)
      (Printf.sprintf "%.2f words per int draw (<= 2)" per_draw)
      true (per_draw <= 2.);
    ignore (Sys.opaque_identity (!acc, !k))
  end

let more_graph_qcheck =
  let open QCheck in
  [
    Test.make ~name:"handshake: sum of degrees = 2m" ~count:60 small_nat
      (fun seed ->
        let g = Graph_gen.gnp ~seed:(Int64.of_int (seed + 500)) 15 0.4 in
        let sum = ref 0 in
        for v = 0 to 14 do
          sum := !sum + Graph.degree g v
        done;
        !sum = 2 * Graph.m g);
    Test.make ~name:"bfs distances are metric-ish" ~count:40 small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 501)) 12 0.3
        in
        let d0 = Traversal.bfs g 0 in
        (* triangle inequality through any edge *)
        Array.for_all
          (fun e -> abs (d0.(e.Graph.u) - d0.(e.Graph.v)) <= 1)
          (Graph.edges g));
    Test.make ~name:"components partition vertices" ~count:40 small_nat
      (fun seed ->
        let g = Graph_gen.gnp ~seed:(Int64.of_int (seed + 502)) 14 0.15 in
        let members = Traversal.component_members g in
        List.fold_left (fun a c -> a + Array.length c) 0 members = 14);
    Test.make ~name:"induced keeps only internal edges" ~count:40 small_nat
      (fun seed ->
        let g = Graph_gen.gnp ~seed:(Int64.of_int (seed + 503)) 12 0.4 in
        let vs = [| 0; 2; 4; 6 |] in
        let sub, _ = Graph.induced g vs in
        Graph.n sub = 4
        && Array.for_all
             (fun e -> e.Graph.u < 4 && e.Graph.v < 4)
             (Graph.edges sub));
  ]

let suite =
  suite
  @ [
      Alcotest.test_case "union and scale" `Quick test_union_and_scale;
      Alcotest.test_case "digraph reverse involution" `Quick
        test_digraph_reverse_involution;
      Alcotest.test_case "layered network structure" `Quick
        test_layered_network_structure;
      Alcotest.test_case "unit bipartite structure" `Quick
        test_unit_bipartite_structure;
      Alcotest.test_case "random mcf feasible" `Quick
        test_random_mcf_demand_feasible;
      Alcotest.test_case "weighted gnp bounds" `Quick test_weighted_gnp_bounds;
      Alcotest.test_case "circulant regular" `Quick test_circulant_regularity;
      Alcotest.test_case "bfs digraph residual mask" `Quick
        test_bfs_digraph_residual_mask;
      Alcotest.test_case "sub edges" `Quick test_sub_edges;
      Alcotest.test_case "non-finite weights rejected" `Quick
        test_non_finite_weights_rejected;
      Alcotest.test_case "prng matches boxed state" `Quick
        test_prng_matches_boxed_state;
      Alcotest.test_case "prng draw allocation" `Quick
        test_prng_draw_allocation;
    ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) more_graph_qcheck
