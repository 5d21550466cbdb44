type t = {
  potentials : Linalg.Vec.t;
  flow : float array;
  energy : float;
  solver_rounds : int;
  solver_iterations : int;
}

type solver = Exact | Cg of float | Theorem_1_1 of float

(* One conductance per support edge, [c.(id) = 1 / resistance id]. A
   resistance r <= 0 is refused by name; so is a conductance that is not
   finite and positive (r = ∞, r so small that 1/r overflows, NaN), which
   is the weight check of [Graph.create]. *)
let conductances support resistance =
  let edges = Graph.edges support in
  let c = Array.make (Array.length edges) 0. in
  Array.iteri
    (fun id e ->
      let r = resistance id in
      if r <= 0. then invalid_arg "Electrical: non-positive resistance";
      let w = 1. /. r in
      (* Written so that NaN fails too: every comparison with NaN is false. *)
      if not (w > 0. && w < Float.infinity) then
        invalid_arg
          (Printf.sprintf
             "Electrical: conductance %g of edge %d (%d,%d) is not finite and \
              positive"
             w id e.Graph.u e.Graph.v);
      c.(id) <- w)
    edges;
  c

(* The support weighted by [c], for the backends that need a [Graph.t]. *)
let conductance_graph support c =
  Graph.create (Graph.n support)
    (List.mapi
       (fun id e -> { e with Graph.w = c.(id) })
       (Array.to_list (Graph.edges support)))

(* [Solver.prepare] needs one component. A disconnected support is solved
   on the component that carries the demand: its vertices are taken from
   the caller's [demand] (centering would spread it over every vertex),
   the sub-solve gets [demand]'s entries there, and the potentials are
   written back and centered over all n. A connected support takes the
   direct path on the centered [b]. *)
let theorem_1_1 ~eps cg ~demand b =
  if Graph.is_connected cg then
    let r = Laplacian.Solver.solve ~eps cg b in
    (r.Laplacian.Solver.x, r.Laplacian.Solver.rounds,
     r.Laplacian.Solver.iterations)
  else begin
    let n = Graph.n cg in
    let label, _ = Traversal.components cg in
    let carrier = ref (-1) in
    Array.iteri
      (fun v x ->
        if x <> 0. && label.(v) <> !carrier then begin
          if !carrier >= 0 then
            invalid_arg
              "Electrical.compute: b is nonzero on two components of the \
               support; Theorem_1_1 solves on one";
          carrier := label.(v)
        end)
      demand;
    let carrier = if !carrier < 0 then label.(0) else !carrier in
    let vs =
      Array.of_list
        (List.filter (fun v -> label.(v) = carrier) (List.init n Fun.id))
    in
    let sub, _ = Graph.induced cg vs in
    let r =
      Laplacian.Solver.solve ~eps sub (Array.map (fun v -> demand.(v)) vs)
    in
    let phi = Linalg.Vec.create n in
    Array.iteri (fun i v -> phi.(v) <- r.Laplacian.Solver.x.(i)) vs;
    (Linalg.Vec.center phi, r.Laplacian.Solver.rounds,
     r.Laplacian.Solver.iterations)
  end

let compute ?(solver = Cg 1e-10) ~support ~resistance ~b () =
  let n = Graph.n support in
  if Array.length b <> n then
    invalid_arg
      (Printf.sprintf
         "Electrical.compute: b has %d entries but the support has %d vertices"
         (Array.length b) n);
  let c = conductances support resistance in
  let demand = b in
  let b = Linalg.Vec.center b in
  let potentials, rounds, iters =
    match solver with
    | Exact ->
      let l = Graph.laplacian_dense (conductance_graph support c) in
      (Linalg.Dense.solve_grounded l b, 1, 1)
    | Cg tol ->
      (* b is centered a second time: float centering is not idempotent,
         and the pinned flows and rounds come from this double pass. *)
      let ws = Linalg.Cg.Workspace.create n in
      let st =
        Linalg.Cg.solve_into ~tol ws
          (Graph.apply_conductance_laplacian_into support c)
          (Linalg.Vec.center b)
      in
      (Linalg.Vec.center ws.Linalg.Cg.Workspace.x,
       st.Linalg.Cg.iterations * Runtime.Cost.matvec_rounds,
       st.Linalg.Cg.iterations)
    | Theorem_1_1 eps ->
      theorem_1_1 ~eps (conductance_graph support c) ~demand b
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
