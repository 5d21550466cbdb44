type t = {
  potentials : Linalg.Vec.t;
  flow : float array;
  energy : float;
  solver_rounds : int;
  solver_iterations : int;
}

type solver = Exact | Cg of float | Theorem_1_1 of float

let conductance_graph support resistance =
  Graph.create (Graph.n support)
    (Array.to_list (Graph.edges support)
    |> List.mapi (fun id e ->
           let r = resistance id in
           if r <= 0. then invalid_arg "Electrical: non-positive resistance";
           { e with Graph.w = 1. /. r }))

let compute ?(solver = Cg 1e-10) ~support ~resistance ~b () =
  let cg = conductance_graph support resistance in
  let b = Linalg.Vec.center b in
  let potentials, rounds, iters =
    match solver with
    | Exact ->
      let l = Graph.laplacian_dense cg in
      (Linalg.Dense.solve_grounded l b, 1, 1)
    | Cg tol ->
      (* b is centered a second time: float centering is not idempotent,
         and the pinned flows and rounds come from this double pass. *)
      let ws = Linalg.Cg.Workspace.create (Graph.n cg) in
      let st =
        Linalg.Cg.solve_into ~tol ws (Graph.apply_laplacian_into cg)
          (Linalg.Vec.center b)
      in
      (Linalg.Vec.center ws.Linalg.Cg.Workspace.x,
       st.Linalg.Cg.iterations * Runtime.Cost.matvec_rounds,
       st.Linalg.Cg.iterations)
    | Theorem_1_1 eps ->
      let r = Laplacian.Solver.solve ~eps cg b in
      (r.Laplacian.Solver.x, r.Laplacian.Solver.rounds,
       r.Laplacian.Solver.iterations)
  in
  let phi = potentials in
  let m = Graph.m support in
  let flow = Array.make m 0. in
  let energy = ref 0. in
  Array.iteri
    (fun id e ->
      let r = resistance id in
      let f = (phi.(e.Graph.u) -. phi.(e.Graph.v)) /. r in
      flow.(id) <- f;
      energy := !energy +. (r *. f *. f))
    (Graph.edges support);
  {
    potentials = phi;
    flow;
    energy = !energy;
    solver_rounds = rounds;
    solver_iterations = iters;
  }

let effective_resistance ?solver g u v =
  let n = Graph.n g in
  List.iter
    (fun x ->
      if x < 0 || x >= n then
        invalid_arg
          (Printf.sprintf
             "Electrical.effective_resistance: vertex %d out of range (n = %d)"
             x n))
    [ u; v ];
  if u = v then 0.
  else if (Traversal.bfs g u).(v) < 0 then infinity
  else begin
    let b =
      Linalg.Vec.sub (Linalg.Vec.basis n u) (Linalg.Vec.basis n v)
    in
    let r =
      compute ?solver ~support:g
        ~resistance:(fun id -> 1. /. (Graph.edge g id).Graph.w)
        ~b ()
    in
    r.potentials.(u) -. r.potentials.(v)
  end
