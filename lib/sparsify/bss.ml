(* Barrier-potential sparsification, following BSS "Twice-Ramanujan
   Sparsifiers": maintain M = Σ t_e v_e v_eᵀ where the v_e put the grounded
   Laplacian in isotropic position; every step shifts both barriers and picks
   an edge whose rank-one update keeps both potentials from growing. *)

let sparsify ?(d = 8) g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Bss.sparsify: need n >= 2";
  if not (Graph.is_connected g) then
    invalid_arg "Bss.sparsify: input must be connected";
  let k = n - 1 in
  let m = Graph.m g in
  let budget = d * k in
  if m <= budget then g
  else begin
    let r = Linalg.Dense.cholesky ~shift:1e-12 (Graph.laplacian_grounded g) in
    (* Isotropic edge vectors v_e = r^{-1} b_e. *)
    let vecs =
      Array.map
        (fun e ->
          let b = Linalg.Vec.create k in
          let sw = sqrt e.Graph.w in
          if e.Graph.u > 0 then b.(e.Graph.u - 1) <- sw;
          if e.Graph.v > 0 then b.(e.Graph.v - 1) <- b.(e.Graph.v - 1) -. sw;
          let v = Linalg.Vec.create k in
          Linalg.Dense.forward_into r b v;
          v)
        (Graph.edges g)
    in
    let sd = sqrt (float_of_int d) in
    let delta_u = (sd +. 1.) /. (sd -. 1.) in
    let delta_l = 1. in
    let eps = 0.25 in
    let kf = float_of_int k in
    let u = ref (kf /. eps) in
    let lo = ref (-.kf /. eps) in
    let msum = Linalg.Dense.create k in
    let coeffs = Array.make m 0. in
    let phi_u = ref eps and phi_l = ref eps in
    (try
       for _step = 1 to budget do
         let u' = !u +. delta_u and l' = !lo +. delta_l in
         let shifted_u =
           Linalg.Dense.init k (fun i j ->
               (if i = j then u' else 0.) -. msum.(i).(j))
         in
         let shifted_l =
           Linalg.Dense.init k (fun i j ->
               msum.(i).(j) -. if i = j then l' else 0.)
         in
         let xu = Linalg.Dense.inverse_spd shifted_u in
         let xl = Linalg.Dense.inverse_spd shifted_l in
         let tr mmat =
           let s = ref 0. in
           for i = 0 to k - 1 do
             s := !s +. mmat.(i).(i)
           done;
           !s
         in
         let phi_u' = tr xu and phi_l' = tr xl in
         let dphi_u = !phi_u -. phi_u' in
         let dphi_l = phi_l' -. !phi_l in
         if dphi_u <= 0. || dphi_l <= 0. then raise Exit;
         (* Score every edge. *)
         let best = ref (-1) in
         let best_gap = ref neg_infinity in
         let best_ua = ref 0. and best_la = ref 0. in
         for e = 0 to m - 1 do
           let v = vecs.(e) in
           let xuv = Linalg.Dense.mul_vec xu v in
           let xlv = Linalg.Dense.mul_vec xl v in
           let q1 = Linalg.Vec.dot v xuv in
           let q2 = Linalg.Vec.dot xuv xuv in
           let p1 = Linalg.Vec.dot v xlv in
           let p2 = Linalg.Vec.dot xlv xlv in
           let ua = (q2 /. dphi_u) +. q1 in
           let la = (p2 /. dphi_l) -. p1 in
           let gap = la -. ua in
           if gap > !best_gap then begin
             best_gap := gap;
             best := e;
             best_ua := ua;
             best_la := la
           end
         done;
         if !best < 0 then raise Exit;
         let v = vecs.(!best) in
         let t =
           if !best_gap >= 0. then 2. /. (!best_ua +. !best_la)
           else 1. /. Float.max !best_ua 1e-12
         in
         (* Keep u'I − M positive definite: t·vᵀXu v < 1. *)
         let xuv = Linalg.Dense.mul_vec xu v in
         let xlv = Linalg.Dense.mul_vec xl v in
         let q1 = Linalg.Vec.dot v xuv in
         let t = if t *. q1 >= 0.95 then 0.5 /. Float.max q1 1e-12 else t in
         for i = 0 to k - 1 do
           for j = 0 to k - 1 do
             msum.(i).(j) <- msum.(i).(j) +. (t *. v.(i) *. v.(j))
           done
         done;
         coeffs.(!best) <- coeffs.(!best) +. t;
         (* Sherman–Morrison trace updates. *)
         let p1 = Linalg.Vec.dot v xlv in
         let q2 = Linalg.Vec.dot xuv xuv in
         let p2 = Linalg.Vec.dot xlv xlv in
         phi_u := phi_u' +. (t *. q2 /. (1. -. (t *. q1)));
         phi_l := phi_l' -. (t *. p2 /. (1. +. (t *. p1)));
         u := u';
         lo := l'
       done
     with Exit | Failure _ -> ());
    let scale =
      if !lo > 0. then 1. /. sqrt (!u *. !lo) else 1. /. Float.max !u 1.
    in
    let edge_list = ref [] in
    Array.iteri
      (fun e t ->
        if t > 0. then begin
          let edge = Graph.edge g e in
          edge_list := { edge with Graph.w = edge.Graph.w *. t *. scale } :: !edge_list
        end)
      coeffs;
    Graph.create n !edge_list
  end
