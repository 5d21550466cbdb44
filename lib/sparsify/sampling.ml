let leverage_scores g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Sampling.leverage_scores: need n >= 2";
  (* Grounded inverse gives effective resistances:
     R(u,v) = (e_u − e_v)ᵀ L† (e_u − e_v). *)
  let chol = Linalg.Dense.cholesky ~shift:1e-12 (Graph.laplacian_grounded g) in
  let solve b =
    let b = Linalg.Vec.center b in
    let b' = Array.sub b 1 (n - 1) in
    let x' = Linalg.Dense.cholesky_solve chol b' in
    let x = Linalg.Vec.create n in
    Array.blit x' 0 x 1 (n - 1);
    x
  in
  Array.map
    (fun e ->
      let b =
        Linalg.Vec.sub (Linalg.Vec.basis n e.Graph.u) (Linalg.Vec.basis n e.Graph.v)
      in
      let x = solve b in
      e.Graph.w *. (x.(e.Graph.u) -. x.(e.Graph.v)))
    (Graph.edges g)

let sparsify ?(seed = 99L) g =
  let c = 8. in
  let n = Graph.n g in
  if n < 2 then invalid_arg "Sampling.sparsify: need n >= 2";
  if not (Graph.is_connected g) then
    invalid_arg "Sampling.sparsify: input must be connected";
  let scores = leverage_scores g in
  let total = Array.fold_left ( +. ) 0. scores in
  let q =
    int_of_float (Float.ceil (c *. float_of_int n *. log (float_of_int (max n 2))))
  in
  let rng = Prng.create seed in
  (* Accumulate repeated picks into one weight per edge. *)
  let picks = Array.make (Graph.m g) 0 in
  for _ = 1 to q do
    let r = Prng.float rng total in
    let acc = ref 0. in
    let chosen = ref (Graph.m g - 1) in
    (try
       Array.iteri
         (fun e s ->
           acc := !acc +. s;
           if !acc >= r then begin
             chosen := e;
             raise Exit
           end)
         scores
     with Exit -> ());
    picks.(!chosen) <- picks.(!chosen) + 1
  done;
  let edges = ref [] in
  Array.iteri
    (fun e k ->
      if k > 0 then begin
        let edge = Graph.edge g e in
        let p = scores.(e) /. total in
        let w = edge.Graph.w *. float_of_int k /. (float_of_int q *. p) in
        edges := { edge with Graph.w } :: !edges
      end)
    picks;
  Graph.create n !edges
