type report = {
  f : Flow.t;
  cost : float;
  ipm_iterations : int;
  perturbations : int;
  laplacian_solves : int;
  repair_augmentations : int;
  rounds : int;
}

let eta = 1. /. 14.

(* Bipartite lift of Algorithm 7 over Mcf_ipm's G₁: P = V(G₁), plus one
   Q-vertex per lifted arc j, and edge pairs (2j, 2j+1):
   2j   = (src_j, q_j), cost c_j  ("e": carries the arc's flow)
   2j+1 = (dst_j, q_j), cost 0    ("ē": the slack partner). *)
type bip = {
  lift : Mcf_ipm.lift;
  support : Graph.t;  (** bipartite support, edge ids = 2j / 2j+1 *)
  np : int;  (** |P| *)
  nq : int;  (** |Q| = lifted arc count *)
  cost_of : float array;  (** per bipartite edge *)
  demand : Linalg.Vec.t;  (** injections: +b(u) on P, −1 on Q *)
}

let build g ~sigma =
  let lift = Mcf_ipm.build_lift g ~sigma in
  let lg = lift.Mcf_ipm.lg in
  let np = Digraph.n lg in
  let nq = Digraph.m lg in
  let q_of j = np + j in
  let edges = ref [] in
  let cost_of = Array.make (2 * nq) 0. in
  Array.iteri
    (fun j a ->
      edges :=
        { Graph.u = a.Digraph.dst; v = q_of j; w = 1. }
        :: { Graph.u = a.Digraph.src; v = q_of j; w = 1. }
        :: !edges;
      cost_of.(2 * j) <- float_of_int a.Digraph.cost)
    (Digraph.arcs lg);
  let support = Graph.create (np + nq) (List.rev !edges) in
  (* b(u) = σ(u) + deg_in^{G₁}(u) on P; every Q-vertex absorbs one unit. *)
  let demand = Linalg.Vec.create (np + nq) in
  for u = 0 to np - 1 do
    demand.(u) <-
      float_of_int (lift.Mcf_ipm.sigma_hat.(u) + Digraph.in_degree lg u)
  done;
  for j = 0 to nq - 1 do
    demand.(q_of j) <- -1.
  done;
  { lift; support; np; nq; cost_of; demand }

(* ν-weighted p-norm of ρ (CMSV's ‖·‖_{ν,p}). *)
let nu_norm nu rho p =
  let acc = ref 0. in
  Array.iteri (fun e r -> acc := !acc +. (nu.(e) *. (Float.abs r ** p))) rho;
  !acc ** (1. /. p)

(* Potential difference along bipartite edge e, oriented P→Q. *)
let dphi bip phi e =
  let edge = Graph.edge bip.support e in
  phi.(edge.Graph.u) -. phi.(edge.Graph.v)

let floor_pos x = Float.max x 1e-12

(* Resistances must stay strictly inside (0, ∞) for the Laplacian support. *)
let clamp_r x = Float.min (Float.max x 1e-12) 1e18

(* Algorithm 9, line by line. Mutates f and s; returns (ρ, rounds). The
   [floor_pos] guards keep the verbatim updates inside the cone when
   floating point would leave it; exactness never depends on them. *)
let progress ~solver bip f s nu =
  let m2 = 2 * bip.nq in
  (* line 1 *)
  let r = Array.init m2 (fun e -> clamp_r (nu.(e) /. (f.(e) *. f.(e)))) in
  (* line 2: solve L φ̂ = σ *)
  let elec1 =
    Electrical.compute ~solver ~support:bip.support
      ~resistance:(fun e -> r.(e))
      ~b:bip.demand ()
  in
  let phi1 = elec1.Electrical.potentials in
  (* line 3 *)
  let ftilde = Array.init m2 (fun e -> dphi bip phi1 e /. r.(e)) in
  let rho = Array.init m2 (fun e -> Float.abs ftilde.(e) /. f.(e)) in
  (* line 4 *)
  let delta = Float.min (1. /. (8. *. Float.max (nu_norm nu rho 4.) 1e-9)) 0.125 in
  (* line 5 *)
  let f' = Array.init m2 (fun e -> ((1. -. delta) *. f.(e)) +. (delta *. ftilde.(e))) in
  let s' =
    Array.init m2 (fun e ->
        floor_pos (s.(e) -. (delta /. (1. -. delta) *. dphi bip phi1 e)))
  in
  (* line 6 *)
  let fsharp =
    Array.init m2 (fun e ->
        floor_pos ((1. -. delta) *. f.(e) *. s.(e) /. s'.(e)))
  in
  (* line 7: σ' = divergence residue of f' − f# *)
  let sigma' = Linalg.Vec.create (bip.np + bip.nq) in
  Array.iteri
    (fun e edge ->
      let d = f'.(e) -. fsharp.(e) in
      sigma'.(edge.Graph.u) <- sigma'.(edge.Graph.u) +. d;
      sigma'.(edge.Graph.v) <- sigma'.(edge.Graph.v) -. d)
    (Graph.edges bip.support);
  (* line 8 *)
  let r2 =
    Array.init m2 (fun e ->
        clamp_r (s'.(e) *. s'.(e) /. ((1. -. delta) *. f.(e) *. s.(e))))
  in
  (* line 9 *)
  let elec2 =
    Electrical.compute ~solver ~support:bip.support
      ~resistance:(fun e -> r2.(e))
      ~b:sigma' ()
  in
  let phi2 = elec2.Electrical.potentials in
  (* lines 10–11 *)
  for e = 0 to m2 - 1 do
    let ft = dphi bip phi2 e /. r2.(e) in
    f.(e) <- fsharp.(e) +. ft;
    s.(e) <- floor_pos (s'.(e) -. (s'.(e) *. ft /. fsharp.(e)))
  done;
  (rho, elec1.Electrical.solver_rounds + elec2.Electrical.solver_rounds + 2)

(* Algorithm 8, for every Q vertex. *)
let perturb bip y f s nu =
  for j = 0 to bip.nq - 1 do
    let e = 2 * j and ebar = (2 * j) + 1 in
    let qv = bip.np + j in
    y.(qv) <- y.(qv) -. s.(e);
    nu.(e) <- 2. *. nu.(e);
    nu.(ebar) <- nu.(ebar) +. (nu.(e) *. f.(e) /. f.(ebar));
    (* y_v changed: refresh both incident slacks (s = c + y_u − y_v). *)
    let refresh ee =
      let edge = Graph.edge bip.support ee in
      s.(ee) <- bip.cost_of.(ee) +. y.(edge.Graph.u) -. y.(edge.Graph.v)
    in
    refresh e;
    refresh ebar
  done

let solve ?(solver = Electrical.Cg 1e-10) g ~sigma =
  let bip = build g ~sigma in
  let m2 = 2 * bip.nq in
  let mh = bip.nq in
  let w_max = Digraph.max_cost bip.lift.Mcf_ipm.lg in
  let ledger = Runtime.Cost.create () in
  (* Algorithm 7, lines 11–13: the explicit initial central point. *)
  let cinf = Float.max 1. (float_of_int w_max) in
  let y = Linalg.Vec.create (bip.np + bip.nq) in
  for u = 0 to bip.np - 1 do
    y.(u) <- cinf
  done;
  let f = Array.make m2 0.5 in
  let s =
    Array.init m2 (fun e ->
        let edge = Graph.edge bip.support e in
        bip.cost_of.(e) +. y.(edge.Graph.u) -. y.(edge.Graph.v))
  in
  let nu = Array.init m2 (fun e -> s.(e) /. (2. *. cinf)) in
  let c_rho =
    400. *. sqrt 3.
    *. (Float.max 1. (log (float_of_int (max w_max 2))) ** (1. /. 3.))
  in
  let rho_threshold = c_rho *. (float_of_int (max mh 2) ** (0.5 -. eta)) in
  let mu_end = 1. /. (32. *. float_of_int (max mh 2)) in
  let cap =
    150 + (20 * Mcf_ipm.iterations_reference ~m:(Digraph.m g) ~w:(max w_max 1))
  in
  let mu_estimate () =
    let acc = ref 0. and k = ref 0 in
    for e = 0 to m2 - 1 do
      if nu.(e) > 1e-12 then begin
        acc := !acc +. (f.(e) *. s.(e) /. nu.(e));
        incr k
      end
    done;
    if !k = 0 then 0. else !acc /. float_of_int !k
  in
  let iters = ref 0 in
  let solves = ref 0 in
  let perturbations = ref 0 in
  let last_rho = ref (Array.make m2 0.) in
  let healthy = ref true in
  while !healthy && mu_estimate () > mu_end && !iters < cap do
    incr iters;
    (* Algorithm 6's while-loop: perturb while the ν,3-norm is too large. *)
    if !iters > 1 && nu_norm nu !last_rho 3. > rho_threshold then begin
      incr perturbations;
      perturb bip y f s nu;
      Runtime.Cost.charge ledger ~phase:"ipm" 1
    end;
    let rho, rounds = progress ~solver bip f s nu in
    solves := !solves + 2;
    Runtime.Cost.charge ledger ~phase:"ipm" rounds;
    last_rho := rho;
    (* Numerical safety: the verbatim updates can leave the box in floating
       point; the repair phase will still deliver the exact optimum. *)
    for e = 0 to m2 - 1 do
      if not (Float.is_finite f.(e)) then healthy := false
      else f.(e) <- Float.min (1. -. 1e-9) (Float.max 1e-9 f.(e))
    done
  done;
  (* Arc flows are the cost-carrying halves. *)
  let f_lift = Array.init mh (fun j -> f.(2 * j)) in
  match Mcf_ipm.round_and_repair bip.lift f_lift ledger with
  | None -> None
  | Some (f_final, repair) ->
    Some
      {
        f = f_final;
        cost = Flow.cost g f_final;
        ipm_iterations = !iters;
        perturbations = !perturbations;
        laplacian_solves = !solves;
        repair_augmentations = repair;
        rounds = Runtime.Cost.rounds ledger;
      }
