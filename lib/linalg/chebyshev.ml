type stats = { iterations : int; residual : float; converged : bool }

let iteration_bound ~kappa ~eps =
  let eps = Float.max eps 1e-300 in
  int_of_float (Float.ceil (sqrt (Float.max kappa 1.) *. log (2. /. eps))) + 1

module Workspace = struct
  type t = { x : Vec.t; r : Vec.t; z : Vec.t; d : Vec.t; ad : Vec.t }

  let create n =
    {
      x = Vec.create n;
      r = Vec.create n;
      z = Vec.create n;
      d = Vec.create n;
      ad = Vec.create n;
    }

  let dim ws = Vec.dim ws.x
end

(* Chebyshev semi-iteration for the preconditioned system B†A x = B†b whose
   spectrum (on the range) lies in [1/κ, 1]. Cf. Saad, "Iterative Methods for
   Sparse Linear Systems", Alg. 12.1.

   Zero-allocation workspace kernel: all five iteration vectors are
   caller-owned, the norms are inlined (a call returning [float] boxes its
   result), and the element expressions reproduce the seed's allocating
   loop literally — including the [1. *.] and [(-1.) *.] factors of its
   in-place axpy updates — so the kernel is bit-identical to the seed
   solver (pinned by test_linalg's embedded copy of it). *)
(* cc_lint: hot solve_into *)
let solve_into ?max_iters ?(tol = 1e-10) ~apply_a_into ~solve_b_into ~kappa
    (ws : Workspace.t) b =
  let n = Vec.dim b in
  if Workspace.dim ws <> n then
    invalid_arg "Chebyshev.solve_into: workspace dimension mismatch";
  let max_iters =
    match max_iters with
    | Some k -> k
    | None -> iteration_bound ~kappa ~eps:tol
  in
  let lmin = 1. /. Float.max kappa 1. in
  let lmax = 1. in
  let theta = (lmax +. lmin) /. 2. in
  let delta = (lmax -. lmin) /. 2. in
  let sigma1 = theta /. delta in
  let x = ws.Workspace.x
  and r = ws.Workspace.r
  and z = ws.Workspace.z
  and d = ws.Workspace.d
  and ad = ws.Workspace.ad in
  Vec.fill x 0.;
  Vec.copy_into b r;
  let nb_acc = ref 0. in
  for i = 0 to n - 1 do
    nb_acc := !nb_acc +. (r.(i) *. r.(i))
  done;
  let nb = Float.max (sqrt !nb_acc) 1e-300 in
  solve_b_into r z;
  let inv_theta = 1. /. theta in
  for i = 0 to n - 1 do
    d.(i) <- inv_theta *. z.(i)
  done;
  let rho_prev = ref (1. /. sigma1) in
  let iters = ref 0 in
  let residual = ref (sqrt !nb_acc /. nb) in
  (try
     while !iters < max_iters do
       for i = 0 to n - 1 do
         x.(i) <- (1. *. d.(i)) +. x.(i)
       done;
       apply_a_into d ad;
       for i = 0 to n - 1 do
         r.(i) <- ((-1.) *. ad.(i)) +. r.(i)
       done;
       let nr_acc = ref 0. in
       for i = 0 to n - 1 do
         nr_acc := !nr_acc +. (r.(i) *. r.(i))
       done;
       residual := sqrt !nr_acc /. nb;
       incr iters;
       if !residual <= tol then raise Exit;
       solve_b_into r z;
       let rho = 1. /. ((2. *. sigma1) -. !rho_prev) in
       let c1 = rho *. !rho_prev in
       let c2 = 2. *. rho /. delta in
       for i = 0 to n - 1 do
         d.(i) <- (c1 *. d.(i)) +. (c2 *. z.(i))
       done;
       rho_prev := rho
     done
   with Exit -> ());
  { iterations = !iters; residual = !residual; converged = !residual <= tol }
