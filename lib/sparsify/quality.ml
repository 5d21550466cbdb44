(* Extreme eigenvalues of the pencil (A, B): eigenvalues of
   C = R^{-T} A R^{-1} where B = Rᵀ R. λmax by power iteration on C; λmin as
   1/λmax(C^{-1}) with C^{-1} = R A^{-1} Rᵀ applied via solves. *)
let pencil_bounds g h =
  if Graph.n g <> Graph.n h then
    invalid_arg "Quality.pencil_bounds: vertex count mismatch";
  if Graph.n g < 2 then invalid_arg "Quality.pencil_bounds: need n >= 2";
  try
    let a = Graph.laplacian_grounded g in
    let rb = Linalg.Dense.cholesky ~shift:1e-12 (Graph.laplacian_grounded h) in
    (* rb is lower triangular: b = rb rbᵀ. C = rb^{-1} a rb^{-T}. *)
    let k = Linalg.Dense.dim a in
    let fresh pass x =
      let y = Linalg.Vec.create k in
      pass rb x y;
      y
    in
    let apply_c x =
      fresh Linalg.Dense.forward_into
        (Linalg.Dense.mul_vec a (fresh Linalg.Dense.backward_into x))
    in
    let la = Linalg.Dense.cholesky ~shift:1e-12 a in
    let rb_sq = Linalg.Dense.lower rb in
    let rb_t = Linalg.Dense.transpose rb_sq in
    let apply_c_inv x =
      (* C^{-1} = rbᵀ a^{-1} rb *)
      let y = Linalg.Dense.mul_vec rb_sq x in
      let z = Linalg.Dense.cholesky_solve la y in
      Linalg.Dense.mul_vec rb_t z
    in
    let lmax, _ = Linalg.Dense.power_iteration ~iters:500 apply_c k in
    let inv_lmin, _ = Linalg.Dense.power_iteration ~iters:500 apply_c_inv k in
    let lmin = if inv_lmin > 0. then 1. /. inv_lmin else 0. in
    (lmin, lmax)
  with Failure _ -> (0., infinity)

let approximation_factor g h =
  let lmin, lmax = pencil_bounds g h in
  if lmin <= 0. then infinity else Float.max lmax (1. /. lmin)

let relative_condition g h =
  let lmin, lmax = pencil_bounds g h in
  if lmin <= 0. then infinity else lmax /. lmin
