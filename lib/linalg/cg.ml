type stats = { iterations : int; residual : float; converged : bool }

module Workspace = struct
  type t = { x : Vec.t; r : Vec.t; p : Vec.t; ap : Vec.t }

  let create n =
    { x = Vec.create n; r = Vec.create n; p = Vec.create n; ap = Vec.create n }

  let dim ws = Vec.dim ws.x
end

(* Steady-state-zero-allocation CG. Every buffer lives in the workspace; the
   dot products and norms are inlined because a call returning [float] boxes
   its result, which would charge one minor word per iteration. The element
   expressions reproduce the historical allocating implementation literally,
   so [solve] (a thin wrapper over this kernel) stays bit-identical to the
   seed solver — pinned by the differential test in test_linalg. *)
(* cc_lint: hot solve_into *)
let solve_into ?max_iters ?(tol = 1e-10) (ws : Workspace.t) apply_into b =
  let n = Vec.dim b in
  if Workspace.dim ws <> n then
    invalid_arg "Cg.solve_into: workspace dimension mismatch";
  let max_iters = match max_iters with Some k -> k | None -> 10 * n in
  let x = ws.Workspace.x
  and r = ws.Workspace.r
  and p = ws.Workspace.p
  and ap = ws.Workspace.ap in
  Vec.fill x 0.;
  (* r <- b - A x *)
  apply_into x ap;
  for i = 0 to n - 1 do
    r.(i) <- b.(i) -. ap.(i)
  done;
  Vec.copy_into r p;
  let rs = ref 0. in
  for i = 0 to n - 1 do
    rs := !rs +. (r.(i) *. r.(i))
  done;
  let nb_acc = ref 0. in
  for i = 0 to n - 1 do
    nb_acc := !nb_acc +. (b.(i) *. b.(i))
  done;
  let nb = sqrt !nb_acc in
  let target = tol *. Float.max nb 1e-300 in
  let iters = ref 0 in
  (try
     while !iters < max_iters && sqrt !rs > target do
       apply_into p ap;
       let pap = ref 0. in
       for i = 0 to n - 1 do
         pap := !pap +. (p.(i) *. ap.(i))
       done;
       if !pap <= 0. then raise Exit;
       let alpha = !rs /. !pap in
       for i = 0 to n - 1 do
         x.(i) <- (alpha *. p.(i)) +. x.(i)
       done;
       let nalpha = -.alpha in
       for i = 0 to n - 1 do
         r.(i) <- (nalpha *. ap.(i)) +. r.(i)
       done;
       let rs' = ref 0. in
       for i = 0 to n - 1 do
         rs' := !rs' +. (r.(i) *. r.(i))
       done;
       let beta = !rs' /. !rs in
       for i = 0 to n - 1 do
         p.(i) <- r.(i) +. (beta *. p.(i))
       done;
       rs := !rs';
       incr iters
     done
   with Exit -> ());
  let residual = sqrt !rs in
  { iterations = !iters; residual; converged = residual <= target }

let solve ?max_iters ?tol apply b =
  let ws = Workspace.create (Vec.dim b) in
  let apply_into src dst = Vec.copy_into (apply src) dst in
  let st = solve_into ?max_iters ?tol ws apply_into b in
  (ws.Workspace.x, st)

let solve_grounded ?tol apply b =
  let b = Vec.center b in
  let x, st = solve ?tol apply b in
  (Vec.center x, st)
