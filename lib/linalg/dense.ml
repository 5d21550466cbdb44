type t = float array array

let create n = Array.make_matrix n n 0.

let init n f = Array.init n (fun i -> Array.init n (fun j -> f i j))

let dim a = Array.length a

let identity n = init n (fun i j -> if i = j then 1. else 0.)

let transpose a =
  let n = dim a in
  init n (fun i j -> a.(j).(i))

let mul a b =
  let n = dim a in
  if dim b <> n then invalid_arg "Dense.mul: dimension mismatch";
  let c = create n in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let aik = a.(i).(k) in
      if aik <> 0. then
        for j = 0 to n - 1 do
          c.(i).(j) <- c.(i).(j) +. (aik *. b.(k).(j))
        done
    done
  done;
  c

(* cc_lint: hot mul_vec_into cholesky_solve_into *)
let mul_vec_into a x y =
  let n = dim a in
  if Array.length x <> n then
    invalid_arg "Dense.mul_vec_into: dimension mismatch";
  if Array.length y <> n then
    invalid_arg "Dense.mul_vec_into: output dimension mismatch";
  (* Row dot products inlined: a call returning [float] would box the
     result on every row, breaking the zero-allocation contract. The
     accumulation order matches [Vec.dot] exactly (bit-identical). *)
  for i = 0 to n - 1 do
    let row = a.(i) in
    let acc = ref 0. in
    for j = 0 to n - 1 do
      acc := !acc +. (row.(j) *. x.(j))
    done;
    y.(i) <- !acc
  done

let mul_vec a x =
  let n = dim a in
  if Array.length x <> n then invalid_arg "Dense.mul_vec: dimension mismatch";
  let y = Vec.create n in
  mul_vec_into a x y;
  y

let add a b =
  let n = dim a in
  init n (fun i j -> a.(i).(j) +. b.(i).(j))

let is_symmetric a =
  let eps = 1e-9 in
  let n = dim a in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Float.abs (a.(i).(j) -. a.(j).(i)) > eps then ok := false
    done
  done;
  !ok

let cholesky ?(shift = 0.) a =
  let n = dim a in
  let l = create n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (a.(i).(j) +. if i = j then shift else 0.) in
      for k = 0 to j - 1 do
        s := !s -. (l.(i).(k) *. l.(j).(k))
      done;
      if i = j then begin
        if !s <= 0. then
          failwith
            (Printf.sprintf "Dense.cholesky: non-positive pivot %g at %d" !s i);
        l.(i).(i) <- sqrt !s
      end
      else l.(i).(j) <- !s /. l.(j).(j)
    done
  done;
  l

let cholesky_solve_into l b scratch x =
  let n = dim l in
  if Array.length b <> n then
    invalid_arg "Dense.cholesky_solve_into: dimension mismatch";
  if Array.length scratch <> n || Array.length x <> n then
    invalid_arg "Dense.cholesky_solve_into: output dimension mismatch";
  (* forward: l y = b, with y in the caller's scratch buffer *)
  let y = scratch in
  for i = 0 to n - 1 do
    let s = ref b.(i) in
    for k = 0 to i - 1 do
      s := !s -. (l.(i).(k) *. y.(k))
    done;
    y.(i) <- !s /. l.(i).(i)
  done;
  (* backward: lᵀ x = y *)
  for i = n - 1 downto 0 do
    let s = ref y.(i) in
    for k = i + 1 to n - 1 do
      s := !s -. (l.(k).(i) *. x.(k))
    done;
    x.(i) <- !s /. l.(i).(i)
  done

let cholesky_solve l b =
  let n = dim l in
  if Array.length b <> n then
    invalid_arg "Dense.cholesky_solve: dimension mismatch";
  let scratch = Vec.create n in
  let x = Vec.create n in
  cholesky_solve_into l b scratch x;
  x

let solve_spd ?(shift = 0.) a b = cholesky_solve (cholesky ~shift a) b

let inverse_spd a =
  let n = dim a in
  let l = cholesky a in
  let inv = create n in
  for j = 0 to n - 1 do
    let col = cholesky_solve l (Vec.basis n j) in
    for i = 0 to n - 1 do
      inv.(i).(j) <- col.(i)
    done
  done;
  inv

let solve_grounded a b =
  let n = dim a in
  if n = 0 then [||]
  else if n = 1 then [| 0. |]
  else begin
    (* Delete row/column 0; the reduced matrix of a connected Laplacian is
       SPD (it is a principal submatrix with strictly dominant diagonal in
       at least one row of every component attached to vertex 0). *)
    let m = n - 1 in
    let a' = init m (fun i j -> a.(i + 1).(j + 1)) in
    let b' = Array.init m (fun i -> b.(i + 1)) in
    let x' = solve_spd ~shift:1e-12 a' b' in
    let x = Vec.create n in
    for i = 0 to m - 1 do
      x.(i + 1) <- x'.(i)
    done;
    Vec.center x
  end

let deterministic_start n =
  (* Fixed full-support start vector with sign changes so it is unlikely to be
     orthogonal to the dominant eigenvector; deterministic by construction. *)
  let v =
    Vec.init n (fun i ->
        let s = if i land 1 = 0 then 1. else -1. in
        s *. (1. +. (float_of_int ((i * 2654435761) land 0xffff) /. 65536.)))
  in
  Vec.normalize v

let power_iteration ?(iters = 200) apply n =
  let tol = 1e-10 in
  let v = ref (deterministic_start n) in
  let lambda = ref 0. in
  (try
     for _ = 1 to iters do
       let w = apply !v in
       let nw = Vec.norm2 w in
       if nw = 0. then raise Exit;
       let w = Vec.scale (1. /. nw) w in
       let l = Vec.dot w (apply w) in
       if Float.abs (l -. !lambda) <= tol *. Float.max 1. (Float.abs l) then begin
         lambda := l;
         v := w;
         raise Exit
       end;
       lambda := l;
       v := w
     done
   with Exit -> ());
  (!lambda, !v)

let eig_bounds_spd a =
  let n = dim a in
  (* Upper bound: Gershgorin discs. *)
  let hi = ref 0. in
  for i = 0 to n - 1 do
    let r = ref 0. in
    for j = 0 to n - 1 do
      if j <> i then r := !r +. Float.abs a.(i).(j)
    done;
    hi := Float.max !hi (a.(i).(i) +. !r)
  done;
  (* Lower bound: inverse power iteration using a Cholesky factorization. *)
  let l = cholesky ~shift:1e-12 a in
  let mu, _ = power_iteration (fun v -> cholesky_solve l v) n in
  let lo = if mu > 0. then 1. /. mu else 0. in
  (lo, !hi)
