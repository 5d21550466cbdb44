let log_src = Logs.Src.create "repro.solver" ~doc:"Theorem 1.1 Laplacian solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type inner_solver = Direct | Iterative

type report = {
  x : Linalg.Vec.t;
  iterations : int;
  kappa : float;
  sparsifier_edges : int;
  rounds : int;
  phase_rounds : (string * int) list;
  residual : float;
}

let default_inner n = if n <= 400 then Direct else Iterative

let require_connected entry g =
  if not (Graph.is_connected g) then
    invalid_arg (entry ^ ": graph must be connected (L† needs one component)")

let require_rhs entry n b =
  if Linalg.Vec.dim b <> n then
    invalid_arg
      (Printf.sprintf "%s: rhs has dimension %d but the graph has %d nodes"
         entry (Linalg.Vec.dim b) n)

(* Node-internal solver for the sparsifier Laplacian: every node knows H, so
   this costs zero rounds (Theorem 1.1's proof). [solve_h src dst] sets
   [dst] to the centered [L_H† src]; every buffer is allocated here, once,
   so steady-state applications allocate nothing. *)
let inner_solve inner h =
  let n = Graph.n h in
  match inner with
  | Direct ->
    let l = Graph.laplacian_dense h in
    let reduced = Linalg.Dense.init (n - 1) (fun i j -> l.(i + 1).(j + 1)) in
    let chol = Linalg.Dense.cholesky ~shift:1e-12 reduced in
    let c = Linalg.Vec.create n in
    let bsub = Linalg.Vec.create (n - 1) in
    let ysub = Linalg.Vec.create (n - 1) in
    let xsub = Linalg.Vec.create (n - 1) in
    fun src dst ->
      Linalg.Vec.center_into src c;
      Array.blit c 1 bsub 0 (n - 1);
      Linalg.Dense.cholesky_solve_into chol bsub ysub xsub;
      Linalg.Vec.fill dst 0.;
      Array.blit xsub 0 dst 1 (n - 1);
      Linalg.Vec.center_into dst dst
  | Iterative ->
    let cgws = Linalg.Cg.Workspace.create n in
    let cb = Linalg.Vec.create n in
    let apply_h src dst = Graph.apply_laplacian_into h src dst in
    fun src dst ->
      Linalg.Vec.center_into src cb;
      let (_ : Linalg.Cg.stats) =
        Linalg.Cg.solve_into ~tol:1e-13 cgws apply_h cb
      in
      Linalg.Vec.center_into cgws.Linalg.Cg.Workspace.x dst

let kappa_power_iters = 40

let kappa_rounds = 2 * kappa_power_iters * Runtime.Cost.matvec_rounds

(* Distributed estimation of the pencil extremes of (L_G, L_H): power
   iteration on B†A (one matvec round per application, B†-solves internal),
   then on its reflection to reach the bottom of the spectrum. Each step
   applies B†A once, into preallocated buffers, and each loop takes its
   Rayleigh quotient once, after the loop, from its last accepted iterate:
   2·kappa_power_iters + 2 applications in all. [kappa_rounds] prices one
   matvec round per step; the two closing quotients are not charged. Runs
   once per handle; its [kappa_rounds] are charged by [solve_prepared]. *)
let estimate_kappa g solve_h =
  let n = Graph.n g in
  let cv = Linalg.Vec.create n and lv = Linalg.Vec.create n in
  (* w <- B†A v, with v centered first. *)
  let bta_into v w =
    Linalg.Vec.center_into v cv;
    Graph.apply_laplacian_into g cv lv;
    solve_h lv w
  in
  let start =
    Linalg.Vec.normalize
      (Linalg.Vec.center
         (Linalg.Vec.init n (fun i ->
              let s = if i land 1 = 0 then 1. else -1. in
              s *. (1. +. (float_of_int ((i * 48271) land 0x3fff) /. 16384.)))))
  in
  let v = Linalg.Vec.copy start and w = Linalg.Vec.create n in
  (* One power loop; [step] leaves the next unnormalized iterate in w.
     Returns whether any step was accepted. *)
  let power step =
    let accepted = ref false in
    for _ = 1 to kappa_power_iters do
      step ();
      let nw = Linalg.Vec.norm2 w in
      if nw > 0. then begin
        Linalg.Vec.scale_into (1. /. nw) w v;
        accepted := true
      end
    done;
    !accepted
  in
  (* generalized Rayleigh: (v'Av)/(v'Bv); since v has unit 2-norm use the
     B†A operator's ordinary Rayleigh quotient, valid because B†A is
     self-adjoint in the B-inner product and we only need the extreme. *)
  let mu_max =
    if power (fun () -> bta_into v w) then begin
      bta_into v w;
      Linalg.Vec.dot v w
    end
    else 1.
  in
  let c = mu_max *. 1.05 in
  (* w <- c·v − B†A v, the reflected operator (cv is free once bta_into
     has returned). *)
  let reflected_into () =
    bta_into v w;
    Linalg.Vec.scale_into c v cv;
    Linalg.Vec.sub_into cv w w
  in
  Linalg.Vec.copy_into start v;
  let mu_reflected =
    if
      power (fun () ->
          reflected_into ();
          Linalg.Vec.center_into w w)
    then begin
      reflected_into ();
      Linalg.Vec.dot v w
    end
    else 0.
  in
  let mu_min = Float.max (c -. mu_reflected) (mu_max *. 1e-8) in
  (mu_max, mu_min)

let preprocess_weights eps g =
  (* Theorem 3.3 takes integer weights; round to multiples of ε as the
     Theorem 1.1 proof prescribes. *)
  Graph.map_weights
    (fun e -> eps *. Float.max 1. (Float.round (e.Graph.w /. eps)))
    g

type prepared = {
  p_eps : float;
  p_sparsify_rounds : int option;
      (* [None] for a caller-supplied sparsifier: its construction is not
         charged, so the ledger has no "sparsify" entry at all. *)
  p_kappa : float;
  p_sparsifier_edges : int;
  p_solve_b_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  p_apply_a_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  p_ws : Linalg.Chebyshev.Workspace.t;
}

(* Everything after sparsification that does not depend on the
   right-hand side: the inner L_H solver, κ, and the Chebyshev workspace. *)
let prepare_with_sparsifier ~eps ~inner ~sparsify_rounds g h =
  let n = Graph.n g in
  let inner = match inner with Some i -> i | None -> default_inner n in
  let solve_h = inner_solve inner h in
  let lmax, lmin = estimate_kappa g solve_h in
  let inv_lmax = 1. /. lmax in
  {
    p_eps = eps;
    p_sparsify_rounds = sparsify_rounds;
    p_kappa = 1.2 *. lmax /. lmin;
    p_sparsifier_edges = Graph.m h;
    p_solve_b_into =
      (fun src dst ->
        solve_h src dst;
        Linalg.Vec.scale_into inv_lmax dst dst);
    p_apply_a_into = (fun src dst -> Graph.apply_laplacian_into g src dst);
    p_ws = Linalg.Chebyshev.Workspace.create n;
  }

let prepare ?(eps = 1e-6) ?(phi = 0.05) ?inner ?backend ?model g =
  require_connected "Solver.prepare" g;
  (* Only the sparsifier phase is model-sensitive: κ-estimation and the
     Chebyshev loop are matvecs against a globally-known iterate, which
     is one broadcast round per iteration in either model (DESIGN.md
     §13). *)
  let sp =
    Sparsify.Spectral.sparsify ~phi ?backend ?model (preprocess_weights eps g)
  in
  prepare_with_sparsifier ~eps ~inner
    ~sparsify_rounds:(Some sp.Sparsify.Spectral.rounds)
    g sp.Sparsify.Spectral.sparsifier

let solve_prepared p b =
  let n = Linalg.Chebyshev.Workspace.dim p.p_ws in
  require_rhs "Solver.solve_prepared" n b;
  let eps = p.p_eps and kappa = p.p_kappa in
  (* One ledger per solve, replaying the whole pipeline: an answer from a
     reused handle carries the same rounds as one from a fresh handle. *)
  let ledger = Runtime.Cost.create () in
  (match p.p_sparsify_rounds with
  | Some r -> Runtime.Cost.charge ledger ~phase:"sparsify" r
  | None -> ());
  Runtime.Cost.charge ledger ~phase:"kappa-estimate" kappa_rounds;
  (* b is centered twice and x once. Float centering is not idempotent, and
     the pinned reports (golden values, bench baselines) come from this
     double pass: the second centering is part of the arithmetic. *)
  let b = Linalg.Vec.center (Linalg.Vec.center b) in
  let max_iters = Linalg.Chebyshev.iteration_bound ~kappa ~eps:(eps /. 10.) in
  let st =
    Linalg.Chebyshev.solve_into ~max_iters ~tol:(eps /. 100.)
      ~apply_a_into:p.p_apply_a_into ~solve_b_into:p.p_solve_b_into ~kappa
      p.p_ws b
  in
  Runtime.Cost.charge ledger ~phase:"chebyshev"
    (st.Linalg.Chebyshev.iterations * Runtime.Cost.matvec_rounds);
  Log.debug (fun k ->
      k "solve: n=%d kappa=%.3f iterations=%d residual=%.2e" n kappa
        st.Linalg.Chebyshev.iterations st.Linalg.Chebyshev.residual);
  {
    x = Linalg.Vec.center p.p_ws.Linalg.Chebyshev.Workspace.x;
    iterations = st.Linalg.Chebyshev.iterations;
    kappa;
    sparsifier_edges = p.p_sparsifier_edges;
    rounds = Runtime.Cost.rounds ledger;
    phase_rounds = Runtime.Cost.phases ledger;
    residual = st.Linalg.Chebyshev.residual;
  }

let solve ?eps ?phi ?inner ?backend ?model g b =
  solve_prepared (prepare ?eps ?phi ?inner ?backend ?model g) b

let solve_with_sparsifier ?(eps = 1e-6) ?inner g sp b =
  require_connected "Solver.solve_with_sparsifier" g;
  solve_prepared
    (prepare_with_sparsifier ~eps ~inner ~sparsify_rounds:None g
       sp.Sparsify.Spectral.sparsifier)
    b

type prepared_cg = {
  pc_eps : float;
  pc_apply_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  pc_ws : Linalg.Cg.Workspace.t;
}

let prepare_cg ?(eps = 1e-6) g =
  require_connected "Solver.prepare_cg" g;
  {
    pc_eps = eps;
    pc_apply_into = (fun src dst -> Graph.apply_laplacian_into g src dst);
    pc_ws = Linalg.Cg.Workspace.create (Graph.n g);
  }

let solve_cg_prepared p b =
  require_rhs "Solver.solve_cg_prepared" (Linalg.Cg.Workspace.dim p.pc_ws) b;
  (* Centered twice, as in [solve_prepared]; the residual is relative to
     the once-centered rhs. *)
  let b1 = Linalg.Vec.center b in
  let st =
    Linalg.Cg.solve_into ~tol:(p.pc_eps /. 100.) p.pc_ws p.pc_apply_into
      (Linalg.Vec.center b1)
  in
  {
    x = Linalg.Vec.center p.pc_ws.Linalg.Cg.Workspace.x;
    iterations = st.Linalg.Cg.iterations;
    kappa = nan;
    sparsifier_edges = 0;
    rounds = st.Linalg.Cg.iterations * Runtime.Cost.matvec_rounds;
    phase_rounds = [ ("cg", st.Linalg.Cg.iterations) ];
    residual =
      st.Linalg.Cg.residual /. Float.max (Linalg.Vec.norm2 b1) 1e-300;
  }

let solve_cg_baseline ?eps g b = solve_cg_prepared (prepare_cg ?eps g) b

let error_in_l_norm g x b =
  let b = Linalg.Vec.center b in
  let xstar = Linalg.Dense.solve_grounded (Graph.laplacian_dense g) b in
  let diff = Linalg.Vec.sub x xstar in
  let num = sqrt (Float.max 0. (Graph.quadratic_form g diff)) in
  let den = sqrt (Float.max 0. (Graph.quadratic_form g xstar)) in
  if den = 0. then num else num /. den
