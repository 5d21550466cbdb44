let inv_sqrt_degrees g =
  Array.init (Graph.n g) (fun v ->
      let d = Graph.weighted_degree g v in
      if d > 0. then 1. /. sqrt d else 0.)

(* y <- M x for the shifted operator M = 2I − N, N = D^{-1/2} L D^{-1/2}
   applied edge by edge over flat endpoint and weight arrays. Isolated
   vertices are fixed points of N ([N x]_v = 0). *)
let shifted_apply_into eu ev ew isd x y =
  Linalg.Vec.fill y 0.;
  for k = 0 to Array.length eu - 1 do
    let u = eu.(k) and v = ev.(k) in
    let xu = x.(u) *. isd.(u) and xv = x.(v) *. isd.(v) in
    let d = ew.(k) *. (xu -. xv) in
    y.(u) <- y.(u) +. (d *. isd.(u));
    y.(v) <- y.(v) -. (d *. isd.(v))
  done;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (2. *. x.(i)) -. y.(i)
  done

(* [iters] power steps on M, deflated against the unit vector [u0]: [v]
   holds the last accepted unit iterate, [y] is a work buffer. A step whose
   deflated image is zero is not accepted and leaves [v] as it was. Returns
   whether any step was accepted.

   Allocation-free: the dot products and the norm are inlined (a call
   returning [float] boxes its result). The partition is a function of
   these bits, so each element expression keeps its operands and order:
   deflation is the axpy [(a *. u0.(i)) +. y.(i)] with [a = -.c], scaling
   is [1. /. nw] then a multiply, dot products are left folds from 0.
   test_expander pins the iterates against an allocating reference copy,
   and the partitions built from them. *)
(* cc_lint: hot shifted_apply_into power_iterate *)
let power_iterate ~iters eu ev ew isd u0 v y =
  let n = Array.length v in
  let accepted = ref false in
  for _ = 1 to iters do
    shifted_apply_into eu ev ew isd v y;
    let c = ref 0. in
    for i = 0 to n - 1 do
      c := !c +. (y.(i) *. u0.(i))
    done;
    let a = -. !c in
    for i = 0 to n - 1 do
      y.(i) <- (a *. u0.(i)) +. y.(i)
    done;
    let ss = ref 0. in
    for i = 0 to n - 1 do
      ss := !ss +. (y.(i) *. y.(i))
    done;
    let nw = sqrt !ss in
    if nw > 0. then begin
      let s = 1. /. nw in
      for i = 0 to n - 1 do
        v.(i) <- s *. y.(i)
      done;
      accepted := true
    end
  done;
  !accepted

let approx ?(iters = 400) g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Fiedler.approx: need n >= 2";
  let isd = inv_sqrt_degrees g in
  let edges = Graph.edges g in
  let eu = Array.map (fun e -> e.Graph.u) edges
  and ev = Array.map (fun e -> e.Graph.v) edges
  and ew = Array.map (fun e -> e.Graph.w) edges in
  (* Kernel direction of N is D^{1/2} 1. *)
  let u0 =
    Linalg.Vec.normalize
      (Array.init n (fun v ->
           let d = Graph.weighted_degree g v in
           sqrt (Float.max d 0.)))
  in
  (* Power iteration on M = 2I − N from a fixed start deflated against u0;
     the dominant eigenpair on u0⊥ is (2−λ₂). *)
  let start =
    Linalg.Vec.init n (fun i ->
        let s = if i land 1 = 0 then 1. else -1. in
        s *. (1. +. (float_of_int ((i * 2654435761) land 0xffff) /. 65536.)))
  in
  let v =
    Linalg.Vec.normalize
      (Linalg.Vec.axpy (-.Linalg.Vec.dot start u0) u0 start)
  in
  let y = Linalg.Vec.create n in
  (* The Rayleigh quotient of the last accepted iterate; 0 if none was. *)
  let mu =
    if power_iterate ~iters eu ev ew isd u0 v y then begin
      shifted_apply_into eu ev ew isd v y;
      Linalg.Vec.dot v y
    end
    else 0.
  in
  let lambda2 = Float.max 0. (2. -. mu) in
  (* Rescale for sweep rounding: order vertices by (D^{-1/2} x). *)
  let x = Array.mapi (fun i xi -> xi *. isd.(i)) v in
  (lambda2, x)

(* Jacobi eigenvalue iteration on the dense normalized Laplacian. *)
let lambda2_exact g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Fiedler.lambda2_exact: need n >= 2";
  let isd = inv_sqrt_degrees g in
  let a = Array.make_matrix n n 0. in
  for v = 0 to n - 1 do
    if Graph.weighted_degree g v > 0. then a.(v).(v) <- 1.
  done;
  Array.iter
    (fun e ->
      let u = e.Graph.u and v = e.Graph.v and w = e.Graph.w in
      let x = -.w *. isd.(u) *. isd.(v) in
      a.(u).(v) <- a.(u).(v) +. x;
      a.(v).(u) <- a.(v).(u) +. x)
    (Graph.edges g);
  let off_norm () =
    let s = ref 0. in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        s := !s +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    sqrt !s
  in
  let sweeps = ref 0 in
  while off_norm () > 1e-12 && !sweeps < 100 do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        if Float.abs a.(p).(q) > 1e-15 then begin
          let theta = (a.(q).(q) -. a.(p).(p)) /. (2. *. a.(p).(q)) in
          let t =
            let s = if theta >= 0. then 1. else -1. in
            s /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.))
          in
          let c = 1. /. sqrt ((t *. t) +. 1.) in
          let s = t *. c in
          for k = 0 to n - 1 do
            let akp = a.(k).(p) and akq = a.(k).(q) in
            a.(k).(p) <- (c *. akp) -. (s *. akq);
            a.(k).(q) <- (s *. akp) +. (c *. akq)
          done;
          for k = 0 to n - 1 do
            let apk = a.(p).(k) and aqk = a.(q).(k) in
            a.(p).(k) <- (c *. apk) -. (s *. aqk);
            a.(q).(k) <- (s *. apk) +. (c *. aqk)
          done
        end
      done
    done
  done;
  let eigs = Array.init n (fun i -> a.(i).(i)) in
  Array.sort compare eigs;
  eigs.(1)
