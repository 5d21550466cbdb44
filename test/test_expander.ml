(* Tests for conductance, Fiedler approximation, expander decomposition. *)

module Graph_gen = Gen

let test_conductance_complete () =
  (* K4: any cut S of size 1 has cut 3, vol 3 → φ = 1. Size-2 cuts: cut 4,
     vol 6 → 2/3. Exact conductance = 2/3. *)
  let g = Graph_gen.complete 4 in
  Alcotest.(check (float 1e-9)) "K4 conductance" (2. /. 3.)
    (Expander.Conductance.exact g)

let test_conductance_path () =
  (* Path on 4: cutting the middle edge: cut 1, vol min = 3 → 1/3;
     cutting an end edge: 1/1 = 1... vol of single endpoint = 1, cut 1 → 1.
     middle cut vol(S)=deg0+deg1=1+2=3 → 1/3. Exact = 1/3. *)
  let g = Graph_gen.path 4 in
  Alcotest.(check (float 1e-9)) "P4 conductance" (1. /. 3.)
    (Expander.Conductance.exact g)

let test_conductance_of_cut_barbell () =
  let g = Graph_gen.barbell 6 in
  let inside = Array.init 12 (fun v -> v < 6) in
  let phi = Expander.Conductance.of_cut g inside in
  (* bridge weight 1; vol side = 6·5 + 1 = 31 *)
  Alcotest.(check (float 1e-9)) "bridge cut" (1. /. 31.) phi

let test_fiedler_lambda2_path_vs_exact () =
  let g = Graph_gen.path 8 in
  let exact = Expander.Fiedler.lambda2_exact g in
  let approx, _ = Expander.Fiedler.approx ~iters:2000 g in
  Alcotest.(check bool) "approx close to exact" true
    (Float.abs (exact -. approx) < 0.05 *. Float.max exact 0.05)

let test_fiedler_lambda2_complete () =
  (* Normalized Laplacian of K_n has λ₂ = n/(n−1). *)
  let g = Graph_gen.complete 8 in
  let exact = Expander.Fiedler.lambda2_exact g in
  Alcotest.(check (float 1e-6)) "K8 normalized λ₂" (8. /. 7.) exact

let test_fiedler_sweep_finds_barbell_cut () =
  let g = Graph_gen.barbell 8 in
  let _, x = Expander.Fiedler.approx g in
  let inside, phi = Expander.Conductance.sweep_cut g x in
  (* The sweep should find (nearly) the bridge cut. *)
  Alcotest.(check bool) "sparse cut found" true (phi < 0.05);
  let size = Array.fold_left (fun a b -> if b then a + 1 else a) 0 inside in
  Alcotest.(check bool) "balanced-ish" true (size >= 2 && size <= 14)

let test_decomposition_expander_stays_whole () =
  (* A good expander should come back as (nearly) one cluster. *)
  let g = Graph_gen.expander 64 8 in
  let d = Expander.Decomposition.decompose ~phi:0.05 g in
  Alcotest.(check bool) "valid" true (Expander.Decomposition.check g d);
  Alcotest.(check bool) "few clusters" true
    (List.length d.Expander.Decomposition.clusters <= 4);
  Alcotest.(check bool) "few crossing edges" true
    (Expander.Decomposition.crossing_fraction g d <= 0.5)

let test_decomposition_barbell_splits () =
  let g = Graph_gen.barbell 10 in
  let d = Expander.Decomposition.decompose ~phi:0.05 g in
  Alcotest.(check bool) "valid" true (Expander.Decomposition.check g d);
  Alcotest.(check bool) "at least two clusters" true
    (List.length d.Expander.Decomposition.clusters >= 2);
  (* Only the bridge should cross. *)
  Alcotest.(check bool) "few crossing" true
    (List.length d.Expander.Decomposition.crossing <= 3)

let test_decomposition_planted_partition () =
  let g = Graph_gen.planted_partition ~seed:21L 40 0.5 0.02 in
  let d = Expander.Decomposition.decompose ~phi:0.05 g in
  Alcotest.(check bool) "valid" true (Expander.Decomposition.check g d);
  (* Crossing fraction stays well below the dense intra-community part. *)
  Alcotest.(check bool) "crossing fraction < 1/4" true
    (Expander.Decomposition.crossing_fraction g d < 0.25)

let test_decomposition_clusters_certified () =
  (* Every accepted cluster of size ≥ 3 should have measured conductance
     within a constant factor of the target (Cheeger slack is √). *)
  let g = Graph_gen.connected_gnp ~seed:33L 60 0.12 in
  let phi = 0.05 in
  let d = Expander.Decomposition.decompose ~phi g in
  Alcotest.(check bool) "valid" true (Expander.Decomposition.check g d);
  List.iter
    (fun vs ->
      if Array.length vs >= 3 && Array.length vs <= 16 then begin
        let sub, _ = Graph.induced g vs in
        if Graph.m sub > 0 && Graph.is_connected sub then begin
          let measured = Expander.Conductance.exact sub in
          if measured < phi then
            Alcotest.failf "cluster of size %d has conductance %f < %f"
              (Array.length vs) measured phi
        end
      end)
    d.Expander.Decomposition.clusters

let test_decomposition_disconnected () =
  let g =
    Graph.create 6
      [
        { Graph.u = 0; v = 1; w = 1. };
        { Graph.u = 1; v = 2; w = 1. };
        { Graph.u = 3; v = 4; w = 1. };
      ]
  in
  let d = Expander.Decomposition.decompose g in
  Alcotest.(check bool) "valid" true (Expander.Decomposition.check g d);
  Alcotest.(check int) "no crossing edges" 0
    (List.length d.Expander.Decomposition.crossing)

let test_rounds_formula_monotone () =
  let r1 = Expander.Decomposition.rounds_formula ~n:100 ~gamma:0.25 in
  let r2 = Expander.Decomposition.rounds_formula ~n:10000 ~gamma:0.25 in
  Alcotest.(check bool) "monotone" true (r2 > r1);
  (* Sub-linear in n. *)
  Alcotest.(check bool) "sublinear" true (r2 < 10000)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"decomposition always partitions" ~count:30 small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 3)) 24 0.15
        in
        let d = Expander.Decomposition.decompose g in
        Expander.Decomposition.check g d);
    Test.make ~name:"sweep conductance >= exact" ~count:20 small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 11)) 10 0.4
        in
        let _, x = Expander.Fiedler.approx g in
        let _, phi_sweep = Expander.Conductance.sweep_cut g x in
        let phi_exact = Expander.Conductance.exact g in
        phi_sweep >= phi_exact -. 1e-9);
    Test.make ~name:"cheeger: sweep <= sqrt(2 λ2)" ~count:20 small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 17)) 12 0.3
        in
        let lambda2 = Expander.Fiedler.lambda2_exact g in
        let _, x = Expander.Fiedler.approx ~iters:2000 g in
        let _, phi_sweep = Expander.Conductance.sweep_cut g x in
        (* Cheeger rounding guarantee with slack for approximation error. *)
        phi_sweep <= sqrt (2. *. lambda2) +. 0.1);
  ]

let suite =
  [
    Alcotest.test_case "conductance K4" `Quick test_conductance_complete;
    Alcotest.test_case "conductance P4" `Quick test_conductance_path;
    Alcotest.test_case "conductance barbell cut" `Quick
      test_conductance_of_cut_barbell;
    Alcotest.test_case "fiedler approx vs exact" `Quick
      test_fiedler_lambda2_path_vs_exact;
    Alcotest.test_case "fiedler K8 exact" `Quick test_fiedler_lambda2_complete;
    Alcotest.test_case "sweep finds barbell cut" `Quick
      test_fiedler_sweep_finds_barbell_cut;
    Alcotest.test_case "decomposition: expander whole" `Slow
      test_decomposition_expander_stays_whole;
    Alcotest.test_case "decomposition: barbell splits" `Quick
      test_decomposition_barbell_splits;
    Alcotest.test_case "decomposition: planted partition" `Quick
      test_decomposition_planted_partition;
    Alcotest.test_case "decomposition: clusters certified" `Quick
      test_decomposition_clusters_certified;
    Alcotest.test_case "decomposition: disconnected" `Quick
      test_decomposition_disconnected;
    Alcotest.test_case "rounds formula" `Quick test_rounds_formula_monotone;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests

(* --------------------------------------------------- additional coverage *)

let test_decomposition_phi_extremes () =
  let g = Graph_gen.connected_gnp ~seed:91L 40 0.3 in
  (* A tiny φ accepts almost anything: few clusters. *)
  let loose = Expander.Decomposition.decompose ~phi:1e-6 g in
  (* A large φ must cut a lot: many clusters. *)
  let tight = Expander.Decomposition.decompose ~phi:0.45 g in
  Alcotest.(check bool) "loose coarser than tight" true
    (List.length loose.Expander.Decomposition.clusters
    <= List.length tight.Expander.Decomposition.clusters);
  Alcotest.(check bool) "both valid" true
    (Expander.Decomposition.check g loose && Expander.Decomposition.check g tight)

let test_fiedler_barbell_gap () =
  (* λ₂ of a barbell is tiny (low conductance). *)
  let g = Graph_gen.barbell 10 in
  let lambda2 = Expander.Fiedler.lambda2_exact g in
  Alcotest.(check bool)
    (Printf.sprintf "λ₂=%g small" lambda2)
    true (lambda2 < 0.05);
  let expander_g = Graph_gen.expander 20 8 in
  let lambda2' = Expander.Fiedler.lambda2_exact expander_g in
  Alcotest.(check bool)
    (Printf.sprintf "expander λ₂=%g large" lambda2')
    true (lambda2' > 0.2)

let test_sweep_cut_weighted () =
  (* A heavy cluster pair connected by a light edge: sweep finds it even
     with weights. *)
  let edges =
    [
      { Graph.u = 0; v = 1; w = 10. };
      { Graph.u = 1; v = 2; w = 10. };
      { Graph.u = 0; v = 2; w = 10. };
      { Graph.u = 3; v = 4; w = 10. };
      { Graph.u = 4; v = 5; w = 10. };
      { Graph.u = 3; v = 5; w = 10. };
      { Graph.u = 2; v = 3; w = 0.1 };
    ]
  in
  let g = Graph.create 6 edges in
  let _, x = Expander.Fiedler.approx g in
  let inside, phi = Expander.Conductance.sweep_cut g x in
  Alcotest.(check bool) "finds the light bridge" true (phi < 0.01);
  let size = Array.fold_left (fun a b -> if b then a + 1 else a) 0 inside in
  Alcotest.(check int) "balanced halves" 3 size

let suite =
  suite
  @ [
      Alcotest.test_case "decomposition phi extremes" `Quick
        test_decomposition_phi_extremes;
      Alcotest.test_case "fiedler barbell vs expander gap" `Quick
        test_fiedler_barbell_gap;
      Alcotest.test_case "weighted sweep cut" `Quick test_sweep_cut_weighted;
    ]

(* ------------------------------------------------ pinned golden partitioner *)

(* The spectral partitioner pinned bit for bit: the Fiedler estimate at the
   default and at a short iteration count, the expander decomposition, and
   the Theorem 3.3 sparsifier built on it. Decomposition rounds are charged
   by formula, so round baselines cannot see a changed partition; these
   hashes can. Each pin is FNV-1a over IEEE bits and integers, recorded
   before the power loop became allocation-free. *)
type partition_golden = {
  fiedler : int64;  (** λ₂ and [x] bits at the default [iters] *)
  fiedler_37 : int64;  (** the same at [~iters:37] *)
  decomposition : int64;  (** clusters and crossing edge ids *)
  sparsifier : int64;  (** edge [u]/[v]/[w] bits, levels and rounds *)
}

let fnv_float fp x = Wire.Fnv.add_int fp (Int64.to_int (Int64.bits_of_float x))

let fnv_fiedler (lambda2, x) =
  Array.fold_left fnv_float
    (Wire.Fnv.add_int (fnv_float Wire.Fnv.offset lambda2) (Array.length x))
    x

let fnv_decomposition d =
  let fp =
    List.fold_left
      (fun fp vs ->
        Array.fold_left Wire.Fnv.add_int
          (Wire.Fnv.add_int fp (Array.length vs))
          vs)
      (Wire.Fnv.add_int Wire.Fnv.offset
         (List.length d.Expander.Decomposition.clusters))
      d.Expander.Decomposition.clusters
  in
  Wire.Fnv.add_ints
    (Wire.Fnv.add_int fp (List.length d.Expander.Decomposition.crossing))
    d.Expander.Decomposition.crossing

let fnv_sparsifier (r : Sparsify.Spectral.result) =
  let h = r.Sparsify.Spectral.sparsifier in
  let fp =
    Array.fold_left
      (fun fp e ->
        fnv_float (Wire.Fnv.add_ints fp [ e.Graph.u; e.Graph.v ]) e.Graph.w)
      (Wire.Fnv.add_ints Wire.Fnv.offset [ Graph.n h; Graph.m h ])
      (Graph.edges h)
  in
  Wire.Fnv.add_ints fp [ r.Sparsify.Spectral.levels; r.Sparsify.Spectral.rounds ]

let partition_golden_of g =
  {
    fiedler = fnv_fiedler (Expander.Fiedler.approx g);
    fiedler_37 = fnv_fiedler (Expander.Fiedler.approx ~iters:37 g);
    decomposition = fnv_decomposition (Expander.Decomposition.decompose g);
    sparsifier =
      fnv_sparsifier
        (Sparsify.Spectral.sparsify ~model:Runtime.Model.Unicast g);
  }

let pp_partition_golden p =
  Printf.sprintf "fiedler=%016Lx fiedler_37=%016Lx decomposition=%016Lx \
                  sparsifier=%016Lx"
    p.fiedler p.fiedler_37 p.decomposition p.sparsifier

(* A connected G(n, p) plus one isolated vertex (id n). *)
let with_isolated_vertex g =
  Graph.create (Graph.n g + 1) (Array.to_list (Graph.edges g))

let partition_golden_cases =
  [
    (* λ₂/2 ≥ φ on the whole graph: the certify path. *)
    ( "weighted_gnp 160/0.3/8",
      (fun () -> Graph_gen.weighted_gnp ~seed:45L 160 0.3 8),
      {
        fiedler = 0xb2066add28a656edL;
        fiedler_37 = 0x51a87174f6627948L;
        decomposition = 0x4028141fb6ff6c04L;
        sparsifier = 0xf79b2e1ffbc6a4c7L;
      } );
    ( "weighted_gnp 60/0.1/16",
      (fun () -> Graph_gen.weighted_gnp ~seed:9L 60 0.1 16),
      {
        fiedler = 0x5e11fca3ecf1fef4L;
        fiedler_37 = 0xb5f638b2a6f942abL;
        decomposition = 0x4d8a95ba24108058L;
        sparsifier = 0x4073f50a4e48fafeL;
      } );
    (* Sparse cuts: the sweep-cut path (two clusters each). *)
    ( "barbell 12",
      (fun () -> Graph_gen.barbell 12),
      {
        fiedler = 0x2285010e9c3601d1L;
        fiedler_37 = 0x0e2afa093d504a99L;
        decomposition = 0x193cc79bdd7bd0c2L;
        sparsifier = 0x5947299b15176111L;
      } );
    ( "planted_partition 40/0.5/0.02",
      (fun () -> Graph_gen.planted_partition ~seed:21L 40 0.5 0.02),
      {
        fiedler = 0xd6daf9555872e193L;
        fiedler_37 = 0xcb6997ad7863114bL;
        decomposition = 0xa70c70f8535b1dc9L;
        sparsifier = 0xaefd908883138fc8L;
      } );
    (* Recursive sweep cuts down to the exact small-part search. *)
    ( "grid 6x8",
      (fun () -> Graph_gen.grid 6 8),
      {
        fiedler = 0x24ad9cf5f8892ce5L;
        fiedler_37 = 0x677adc199bbb2b84L;
        decomposition = 0x6b01df7466d2a546L;
        sparsifier = 0x215fe55455681d0aL;
      } );
    ( "path 24",
      (fun () -> Graph_gen.path 24),
      {
        fiedler = 0x76fc72eb8f6b8915L;
        fiedler_37 = 0x914bf4acdc9f6abcL;
        decomposition = 0xf09fd079de1eefadL;
        sparsifier = 0xc65c13a2555126b2L;
      } );
    ( "cycle 30",
      (fun () -> Graph_gen.cycle 30),
      {
        fiedler = 0xbe93e73d1b95b537L;
        fiedler_37 = 0x32bb2e62bc0061d4L;
        decomposition = 0x194d1835575a7f85L;
        sparsifier = 0xa662e70c19d9474aL;
      } );
    (* The isolated vertex is a fixed point of N with D^{1/2} 1 zero on
       it, so the power loop converges onto it: λ₂ = 0. *)
    ( "connected_gnp 30/0.2 + isolated vertex",
      (fun () -> with_isolated_vertex (Graph_gen.connected_gnp ~seed:7L 30 0.2)),
      {
        fiedler = 0x9aafc20a739a2ff4L;
        fiedler_37 = 0x6599a2a2a8de6a21L;
        decomposition = 0x3ba53410d62ceb87L;
        sparsifier = 0x68f5faae68b0b275L;
      } );
  ]

let test_golden_partitioner () =
  let drift =
    List.filter_map
      (fun (name, graph, expected) ->
        let actual = partition_golden_of (graph ()) in
        if actual = expected then None
        else
          Some
            (Printf.sprintf "%s:\n  expected %s\n  actual   %s" name
               (pp_partition_golden expected)
               (pp_partition_golden actual)))
      partition_golden_cases
  in
  if drift <> [] then Alcotest.fail (String.concat "\n" drift)

let suite =
  suite
  @ [
      Alcotest.test_case "golden partitioner pinned" `Quick
        test_golden_partitioner;
    ]

(* ------------------------------------------ allocation-free power loop *)

(* Verbatim copy of the allocating Fiedler power iteration that the
   allocation-free loop replaced: five fresh vectors and two normalized
   matvecs per step, [inv_sqrt_degrees] recomputed inside every matvec, and
   a Rayleigh quotient per step of which only the last is read. The
   differential oracle pinning [Fiedler.approx] to bit-identical arithmetic. *)
module Seed_fiedler = struct
  let inv_sqrt_degrees g =
    Array.init (Graph.n g) (fun v ->
        let d = Graph.weighted_degree g v in
        if d > 0. then 1. /. sqrt d else 0.)

  let normalized_apply g x =
    let n = Graph.n g in
    if Array.length x <> n then
      invalid_arg "Fiedler.normalized_apply: dimension mismatch";
    let isd = inv_sqrt_degrees g in
    let y = Linalg.Vec.create n in
    (* N x = D^{-1/2} L D^{-1/2} x, computed edge-by-edge. *)
    Array.iter
      (fun e ->
        let u = e.Graph.u and v = e.Graph.v and w = e.Graph.w in
        let xu = x.(u) *. isd.(u) and xv = x.(v) *. isd.(v) in
        let d = w *. (xu -. xv) in
        y.(u) <- y.(u) +. (d *. isd.(u));
        y.(v) <- y.(v) -. (d *. isd.(v)))
      (Graph.edges g);
    y

  let approx ?(iters = 400) g =
    let n = Graph.n g in
    if n < 2 then invalid_arg "Fiedler.approx: need n >= 2";
    (* Kernel direction of N is D^{1/2} 1. *)
    let u0 =
      Linalg.Vec.normalize
        (Array.init n (fun v ->
             let d = Graph.weighted_degree g v in
             sqrt (Float.max d 0.)))
    in
    let deflate x =
      let c = Linalg.Vec.dot x u0 in
      Linalg.Vec.axpy (-.c) u0 x
    in
    (* Power iteration on M = 2I − N; dominant eigenpair on u0⊥ is (2−λ₂). *)
    let apply_m x =
      let nx = normalized_apply g x in
      Array.init n (fun i -> (2. *. x.(i)) -. nx.(i))
    in
    let start =
      Linalg.Vec.normalize
        (deflate
           (Linalg.Vec.init n (fun i ->
                let s = if i land 1 = 0 then 1. else -1. in
                s *. (1. +. (float_of_int ((i * 2654435761) land 0xffff) /. 65536.)))))
    in
    let v = ref start in
    let mu = ref 0. in
    for _ = 1 to iters do
      let w = deflate (apply_m !v) in
      let nw = Linalg.Vec.norm2 w in
      if nw > 0. then begin
        let w = Linalg.Vec.scale (1. /. nw) w in
        mu := Linalg.Vec.dot w (apply_m w);
        v := w
      end
    done;
    let lambda2 = Float.max 0. (2. -. !mu) in
    (* Rescale for sweep rounding: order vertices by (D^{-1/2} x). *)
    let isd = inv_sqrt_degrees g in
    let x = Array.mapi (fun i xi -> xi *. isd.(i)) !v in
    (lambda2, x)
end

(* Bitwise: compare IEEE bits, so a NaN or a -0. drift cannot hide. *)
let fiedler_bits (lambda2, x) =
  (Int64.bits_of_float lambda2, Array.map Int64.bits_of_float x)

let test_fiedler_bit_identical_to_seed () =
  let graphs =
    [
      ("connected_gnp 12/0.4", Graph_gen.connected_gnp ~seed:1L 12 0.4);
      ("connected_gnp 40/0.15", Graph_gen.connected_gnp ~seed:2L 40 0.15);
      ("weighted_gnp 70/0.2/32", Graph_gen.weighted_gnp ~seed:3L 70 0.2 32);
      ("weighted_gnp 30/0.5/4", Graph_gen.weighted_gnp ~seed:4L 30 0.5 4);
      ("planted_partition 36/0.4/0.03",
        Graph_gen.planted_partition ~seed:5L 36 0.4 0.03);
      ("barbell 8", Graph_gen.barbell 8);
      ("grid 5x7", Graph_gen.grid 5 7);
      ("two vertices", Graph_gen.path 2);
      ("no edges", Graph.create 5 []);
      ("isolated vertex",
        with_isolated_vertex (Graph_gen.connected_gnp ~seed:6L 20 0.3));
    ]
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun iters ->
          let expected = fiedler_bits (Seed_fiedler.approx ?iters g) in
          let actual = fiedler_bits (Expander.Fiedler.approx ?iters g) in
          Alcotest.(check bool)
            (Printf.sprintf "%s, iters=%s" name
               (match iters with Some k -> string_of_int k | None -> "default"))
            true (expected = actual))
        [ Some 0; Some 1; Some 37; None ])
    graphs

(* Gc.minor_words delta-of-deltas, as in test_linalg: 5 and 25 power steps
   on the same graph must allocate exactly the same number of words, i.e.
   a step allocates nothing. Bytecode boxes floats at every step, so the
   assertion is native-only. *)
let test_fiedler_steps_allocate_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let g = Graph_gen.weighted_gnp ~seed:45L 160 0.3 8 in
    let words iters =
      let w0 = Gc.minor_words () in
      ignore (Expander.Fiedler.approx ~iters g);
      Gc.minor_words () -. w0
    in
    ignore (words 2) (* warm-up *);
    let d5 = words 5 in
    let d25 = words 25 in
    Alcotest.(check (float 0.)) "20 extra power steps allocate zero words" 0.
      (d25 -. d5)
  end

let suite =
  suite
  @ [
      Alcotest.test_case "fiedler bit-identical to seed" `Quick
        test_fiedler_bit_identical_to_seed;
      Alcotest.test_case "fiedler zero-alloc steps" `Quick
        test_fiedler_steps_allocate_nothing;
    ]

(* ------------------------------------------ allocation-free exact cuts *)

(* Verbatim copy of the decomposition's former exact small-cluster cut: a
   fresh [inside] array per cut, and [Conductance.of_cut] refolding every
   degree, 2Σw and the cut. The differential oracle pinning
   [Conductance.exact_cut] to it bit for bit. *)
let seed_best_cut_small g =
  let n = Graph.n g in
  let best_phi = ref infinity in
  let best = ref (Array.make n false) in
  for mask = 1 to (1 lsl (n - 1)) - 1 do
    let inside = Array.make n false in
    inside.(0) <- true;
    for b = 0 to n - 2 do
      if (mask lsr b) land 1 = 1 then inside.(b + 1) <- true
    done;
    if not (Array.for_all (fun x -> x) inside) then begin
      let phi = Expander.Conductance.of_cut g inside in
      if phi < !best_phi then begin
        best_phi := phi;
        best := inside
      end
    end
  done;
  (!best, !best_phi)

(* A random multigraph on [k] vertices: a spanning path half the time (the
   decomposition only cuts connected clusters, the rest need not be), then
   up to 3k edges with repeats, weights log-uniform in [1e-3, 2^40]. *)
let random_small_graph rng k =
  let weight () = 1e-3 *. Float.pow 2. (Prng.float rng 50.) in
  let path =
    if Prng.bool rng then
      List.init (k - 1) (fun i -> { Graph.u = i; v = i + 1; w = weight () })
    else []
  in
  let extra =
    List.init (Prng.int rng (3 * k)) (fun _ ->
        let u = Prng.int rng k in
        let v = (u + 1 + Prng.int rng (k - 1)) mod k in
        { Graph.u; v; w = weight () })
  in
  Graph.create k (path @ extra)

(* 3,300 graphs: 300 per k = 3..12, and 20 each at k = 13, 14, where one
   verbatim enumeration alone takes ~10-20 ms. *)
let test_exact_cut_bit_identical_to_seed () =
  let rng = Prng.create 0x5eedL in
  let ks =
    List.concat_map (fun k -> List.init 300 (fun _ -> k)) (List.init 10 (( + ) 3))
    @ List.init 20 (fun _ -> 13)
    @ List.init 20 (fun _ -> 14)
  in
  let mismatches = ref 0 in
  List.iter
    (fun k ->
      let g = random_small_graph rng k in
      let inside0, phi0 = seed_best_cut_small g in
      let inside1, phi1 = Expander.Conductance.exact_cut g in
      if
        inside0 <> inside1
        || Int64.bits_of_float phi0 <> Int64.bits_of_float phi1
      then incr mismatches)
    ks;
  Alcotest.(check int)
    (Printf.sprintf "mismatches in inside or phi bits over %d graphs"
       (List.length ks))
    0 !mismatches

(* The cut scan allocates per call (the degrees, the result), never per
   cut: one k = 14 call scans 8,190 cuts and allocates fewer words than
   that, where a single boxed float per cut would take two words each. *)
let test_exact_cut_allocates_nothing_per_cut () =
  if Sys.backend_type = Sys.Native then begin
    let g = random_small_graph (Prng.create 14L) 14 in
    let cuts = (1 lsl 13) - 2 in
    ignore (Expander.Conductance.exact_cut g) (* warm-up *);
    let w0 = Gc.minor_words () in
    ignore (Expander.Conductance.exact_cut g);
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check bool)
      (Printf.sprintf "%.0f words for %d cuts" words cuts)
      true
      (words < float_of_int cuts)
  end

let suite =
  suite
  @ [
      Alcotest.test_case "exact cut bit-identical to seed" `Quick
        test_exact_cut_bit_identical_to_seed;
      Alcotest.test_case "exact cut zero-alloc cuts" `Quick
        test_exact_cut_allocates_nothing_per_cut;
    ]
