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

(* cc_lint: hot mul_vec_into *)
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

(* A Cholesky factor L, packed into three flat arrays:
   - [lo]: L's rows left of the diagonal, row i (L[i][0..i-1]) at offset
     [row_off i] = i(i-1)/2;
   - [up]: Lᵀ's rows right of the diagonal, row i (L[i+1..n-1][i], that
     is column i of L below the diagonal) at offset [up_off n i] =
     i(2n-i-1)/2;
   - [diag]: the diagonal.
   Only [cholesky] builds one, so [Array.length lo = Array.length up =
   n(n-1)/2] with [n = Array.length diag] always holds: the invariant the
   unchecked loops of [forward] and [backward] rest on. *)
type factor = { lo : float array; up : float array; diag : float array }

let row_off i = i * (i - 1) / 2

let up_off n i = i * ((2 * n) - i - 1) / 2

(* Every entry sums the same terms in the same order as the textbook
   row-by-row loop
     s = a[i][j] + (shift if i = j else 0);  s -= L[i][k]·L[j][k], k < j
   so every bit matches it. Four columns j..j+3 of row i share one pass
   over the prefix k < j (four independent accumulator chains); each then
   takes its in-block terms k = j, j+1, ... in order, as soon as the
   entries before it are known. *)
let cholesky ?(shift = 0.) a =
  let n = dim a in
  let lo = Array.make (n * (n - 1) / 2) 0. in
  let diag = Array.make n 0. in
  for i = 0 to n - 1 do
    let ai = a.(i) and oi = row_off i in
    let jb = ref 0 in
    while !jb + 3 < i do
      let j0 = !jb in
      let o0 = row_off j0 and o1 = row_off (j0 + 1) in
      let o2 = row_off (j0 + 2) and o3 = row_off (j0 + 3) in
      (* [+. 0.] as in the diagonal's [+. shift]: it turns a -0. into 0. *)
      let s0 = ref (ai.(j0) +. 0.) and s1 = ref (ai.(j0 + 1) +. 0.) in
      let s2 = ref (ai.(j0 + 2) +. 0.) and s3 = ref (ai.(j0 + 3) +. 0.) in
      for k = 0 to j0 - 1 do
        let lik = lo.(oi + k) in
        s0 := !s0 -. (lik *. lo.(o0 + k));
        s1 := !s1 -. (lik *. lo.(o1 + k));
        s2 := !s2 -. (lik *. lo.(o2 + k));
        s3 := !s3 -. (lik *. lo.(o3 + k))
      done;
      let l0 = !s0 /. diag.(j0) in
      lo.(oi + j0) <- l0;
      s1 := !s1 -. (l0 *. lo.(o1 + j0));
      let l1 = !s1 /. diag.(j0 + 1) in
      lo.(oi + j0 + 1) <- l1;
      s2 := !s2 -. (l0 *. lo.(o2 + j0));
      s2 := !s2 -. (l1 *. lo.(o2 + j0 + 1));
      let l2 = !s2 /. diag.(j0 + 2) in
      lo.(oi + j0 + 2) <- l2;
      s3 := !s3 -. (l0 *. lo.(o3 + j0));
      s3 := !s3 -. (l1 *. lo.(o3 + j0 + 1));
      s3 := !s3 -. (l2 *. lo.(o3 + j0 + 2));
      lo.(oi + j0 + 3) <- !s3 /. diag.(j0 + 3);
      jb := j0 + 4
    done;
    for j = !jb to i - 1 do
      let oj = row_off j in
      let s = ref (ai.(j) +. 0.) in
      for k = 0 to j - 1 do
        s := !s -. (lo.(oi + k) *. lo.(oj + k))
      done;
      lo.(oi + j) <- !s /. diag.(j)
    done;
    let s = ref (ai.(i) +. shift) in
    for k = 0 to i - 1 do
      let lik = lo.(oi + k) in
      s := !s -. (lik *. lik)
    done;
    if !s <= 0. then
      failwith
        (Printf.sprintf "Dense.cholesky: non-positive pivot %g at %d" !s i);
    diag.(i) <- sqrt !s
  done;
  let up = Array.make (Array.length lo) 0. in
  for i = 0 to n - 1 do
    let oi = up_off n i - i - 1 in
    for k = i + 1 to n - 1 do
      up.(oi + k) <- lo.(row_off k + i)
    done
  done;
  { lo; up; diag }

let lower f =
  let n = Array.length f.diag in
  init n (fun i j ->
      if j < i then f.lo.(row_off i + j) else if j = i then f.diag.(i) else 0.)

(* cc_lint: hot forward backward forward_into backward_into cholesky_solve_into *)
(* L y = b, four rows i..i+3 at a time: they share each y_k load over
   their common prefix k < i, then add their in-block terms in order, so
   y_i sums b_i − Σ_k L[i][k]·y_k in the textbook order. Lengths are the
   caller's to check; the factor's own are fixed by [cholesky]. *)
let forward f (b : Vec.t) (y : Vec.t) =
  let lo = f.lo and d = f.diag in
  let n = Array.length d in
  let ib = ref 0 in
  while !ib + 3 < n do
    let i0 = !ib in
    let o0 = row_off i0 and o1 = row_off (i0 + 1) in
    let o2 = row_off (i0 + 2) and o3 = row_off (i0 + 3) in
    let s0 = ref (Array.unsafe_get b i0) in
    let s1 = ref (Array.unsafe_get b (i0 + 1)) in
    let s2 = ref (Array.unsafe_get b (i0 + 2)) in
    let s3 = ref (Array.unsafe_get b (i0 + 3)) in
    for k = 0 to i0 - 1 do
      let yk = Array.unsafe_get y k in
      s0 := !s0 -. (Array.unsafe_get lo (o0 + k) *. yk);
      s1 := !s1 -. (Array.unsafe_get lo (o1 + k) *. yk);
      s2 := !s2 -. (Array.unsafe_get lo (o2 + k) *. yk);
      s3 := !s3 -. (Array.unsafe_get lo (o3 + k) *. yk)
    done;
    let y0 = !s0 /. Array.unsafe_get d i0 in
    Array.unsafe_set y i0 y0;
    s1 := !s1 -. (Array.unsafe_get lo (o1 + i0) *. y0);
    let y1 = !s1 /. Array.unsafe_get d (i0 + 1) in
    Array.unsafe_set y (i0 + 1) y1;
    s2 := !s2 -. (Array.unsafe_get lo (o2 + i0) *. y0);
    s2 := !s2 -. (Array.unsafe_get lo (o2 + i0 + 1) *. y1);
    let y2 = !s2 /. Array.unsafe_get d (i0 + 2) in
    Array.unsafe_set y (i0 + 2) y2;
    s3 := !s3 -. (Array.unsafe_get lo (o3 + i0) *. y0);
    s3 := !s3 -. (Array.unsafe_get lo (o3 + i0 + 1) *. y1);
    s3 := !s3 -. (Array.unsafe_get lo (o3 + i0 + 2) *. y2);
    Array.unsafe_set y (i0 + 3) (!s3 /. Array.unsafe_get d (i0 + 3));
    ib := i0 + 4
  done;
  for i = !ib to n - 1 do
    let oi = row_off i in
    let s = ref (Array.unsafe_get b i) in
    for k = 0 to i - 1 do
      s := !s -. (Array.unsafe_get lo (oi + k) *. Array.unsafe_get y k)
    done;
    Array.unsafe_set y i (!s /. Array.unsafe_get d i)
  done

(* Lᵀ x = y over Lᵀ's contiguous rows. One chain: the first term of x_i
   needs x_{i+1}, so no two rows can share a pass. *)
let backward f (y : Vec.t) (x : Vec.t) =
  let up = f.up and d = f.diag in
  let n = Array.length d in
  for i = n - 1 downto 0 do
    let oi = up_off n i - i - 1 in
    let s = ref (Array.unsafe_get y i) in
    for k = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get up (oi + k) *. Array.unsafe_get x k)
    done;
    Array.unsafe_set x i (!s /. Array.unsafe_get d i)
  done

let check_dims entry f src dst =
  let n = Array.length f.diag in
  if Array.length src <> n then invalid_arg (entry ^ ": dimension mismatch");
  if Array.length dst <> n then
    invalid_arg (entry ^ ": output dimension mismatch")

let forward_into f b y =
  check_dims "Dense.forward_into" f b y;
  forward f b y

let backward_into f y x =
  check_dims "Dense.backward_into" f y x;
  backward f y x

let cholesky_solve_into f b scratch x =
  check_dims "Dense.cholesky_solve_into" f b scratch;
  check_dims "Dense.cholesky_solve_into" f b x;
  forward f b scratch;
  backward f scratch x

let cholesky_solve f b =
  let n = Array.length f.diag in
  if Array.length b <> n then
    invalid_arg "Dense.cholesky_solve: dimension mismatch";
  let scratch = Vec.create n in
  let x = Vec.create n in
  cholesky_solve_into f b scratch x;
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
