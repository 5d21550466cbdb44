let log_src = Logs.Src.create "repro.maxflow" ~doc:"Theorem 1.2 max-flow IPM"

module Log = (val Logs.src_log log_src : Logs.LOG)

type report = {
  f : Flow.t;
  value : int;
  ipm_iterations : int;
  laplacian_solves : int;
  repair_augmentations : int;
  rounds : int;
  phase_rounds : (string * int) list;
}

let eta = 1. /. 14.

(* Shape reference for E5: the paper's budget is 100·(1/δ)·log U with
   δ = m^{η−1/2}; we drop the constant and the log factor so the curve is
   directly comparable to measured counts at bench sizes. *)
let iterations_reference ~m ~u =
  let mf = float_of_int (max m 2) and uf = float_of_int (max u 1) in
  int_of_float (Float.ceil ((mf ** (0.5 -. eta)) *. (uf ** (1. /. 7.))))

(* Two-sided residual capacities of the symmetrized instance:
   f_e ∈ (−u_e, u_e) strictly. *)
let slacks g f_rel e =
  let u = float_of_int (Digraph.arc g e).Digraph.cap in
  (u -. f_rel.(e), u +. f_rel.(e))

let resistance g f_rel e =
  if (Digraph.arc g e).Digraph.cap = 0 then
    (* Zero-capacity arcs can never carry flow: model them as (nearly)
       open circuits so the support graph stays well-formed. *)
    1e18
  else begin
    let up, um = slacks g f_rel e in
    (1. /. (up *. up)) +. (1. /. (um *. um))
  end

let support_of g =
  Graph.create (Digraph.n g)
    (Array.to_list (Digraph.arcs g)
    |> List.map (fun a -> { Graph.u = a.Digraph.src; v = a.Digraph.dst; w = 1. }))

(* One progress step: Augmentation (solve for the residual demand, step with
   congestion control) followed by Fixing (solve away the conservation
   drift). Returns (rounds charged, step value gained). *)
let progress_step ~solver g support f_rel ~s ~t ~remaining =
  let n = Digraph.n g in
  let b = Linalg.Vec.create n in
  b.(s) <- remaining;
  b.(t) <- b.(t) -. remaining;
  let res e = resistance g f_rel e in
  let elec = Electrical.compute ~solver ~support ~resistance:res ~b () in
  (* Largest safe step: stay strictly inside the box. *)
  let gamma = ref 1. in
  Array.iteri
    (fun e fe ->
      let fe = Float.abs fe in
      if fe > 1e-14 && (Digraph.arc g e).Digraph.cap > 0 then begin
        let up, um = slacks g f_rel e in
        gamma := Float.min !gamma (0.3 *. Float.min up um /. fe)
      end)
    elec.Electrical.flow;
  let gamma = !gamma in
  Array.iteri
    (fun e fe ->
      if (Digraph.arc g e).Digraph.cap > 0 then
        f_rel.(e) <- f_rel.(e) +. (gamma *. fe))
    elec.Electrical.flow;
  (* Fixing: push the (numerical) excess back where it belongs. *)
  let ex = Flow.excess g f_rel in
  ex.(s) <- 0.;
  ex.(t) <- 0.;
  let drift = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0. ex in
  let fix_rounds =
    if drift > 1e-12 then begin
      (* A flow with injections b has excess −b, so cancelling the excess
         means injecting b = +ex at the drifted vertices. *)
      let fix = Electrical.compute ~solver ~support ~resistance:res ~b:ex () in
      Array.iteri
        (fun e fe ->
          if (Digraph.arc g e).Digraph.cap > 0 then begin
            let up, um = slacks g f_rel e in
            let fe =
              (* never let the fix violate the box *)
              Float.max (-.(0.5 *. um)) (Float.min fe (0.5 *. up))
            in
            f_rel.(e) <- f_rel.(e) +. fe
          end)
        fix.Electrical.flow;
      fix.Electrical.solver_rounds
    end
    else 1
  in
  (elec.Electrical.solver_rounds + fix_rounds + 2, gamma *. remaining)

let max_flow ?(solver = Electrical.Cg 1e-10) g ~s ~t =
  Flow.check_terminals "Maxflow_ipm.max_flow" g ~s ~t;
  let n = Digraph.n g in
  let m = Digraph.m g in
  let u = max 1 (Digraph.max_capacity g) in
  if m = 0 then
    {
      f = [||];
      value = 0;
      ipm_iterations = 0;
      laplacian_solves = 0;
      repair_augmentations = 0;
      rounds = 0;
      phase_rounds = [];
    }
  else begin
    let ledger = Runtime.Cost.create () in
    let support = support_of g in
    let cap_bound =
      List.fold_left
        (fun a id -> a + (Digraph.arc g id).Digraph.cap)
        0 (Digraph.out_arcs g s)
    in
    let target = float_of_int cap_bound in
    let f_rel = Array.make m 0. in
    let cap = 100 + (20 * iterations_reference ~m ~u) in
    (* IPM phase: drive the symmetrized flow toward the target, stalling at
       the symmetrized optimum. *)
    let val_routed = ref 0. in
    let iters = ref 0 in
    let solves = ref 0 in
    let stall = ref 0 in
    while !iters < cap && !stall < 8 && target -. !val_routed > 0.125 do
      incr iters;
      let remaining = target -. !val_routed in
      let step_rounds, gained =
        progress_step ~solver g support f_rel ~s ~t ~remaining
      in
      solves := !solves + 2;
      Runtime.Cost.charge ledger ~phase:"ipm" step_rounds;
      val_routed := !val_routed +. gained;
      if gained < 1e-6 *. Float.max target 1. then incr stall else stall := 0
    done;
    (* Gather the fractional flow so the grid snap can run internally. *)
    let grid_bits = Runtime.Cost.log2_ceil (4 * m) + 2 in
    let delta = 1. /. float_of_int (1 lsl grid_bits) in
    Runtime.Cost.charge ledger ~phase:"gather"
      (Runtime.Cost.gather_rounds ~n ~m
         ~bits_per_edge:
           ((2 * Runtime.Cost.log2_ceil (max n 2))
           + Runtime.Cost.log2_ceil (u + 1)
           + grid_bits));
    (* Project the signed relaxation onto a directed-feasible grid flow: the
       largest flow dominated by the positive part of f_rel, computed
       internally (every node holds the gathered fractional flow) in exact
       grid units. This dominates any per-path filtering and conserves
       exactly on the grid. *)
    let grain = 1 lsl grid_bits in
    let projected_caps =
      Array.init m (fun e ->
          let x = Float.max 0. f_rel.(e) in
          int_of_float (Float.floor (x *. float_of_int grain)))
    in
    let dg =
      Digraph.create n
        (Array.to_list (Digraph.arcs g)
        |> List.mapi (fun e a -> { a with Digraph.cap = projected_caps.(e) }))
    in
    let f_units, _ = Dinic.max_flow dg ~s ~t in
    let f_dir = Array.map (fun x -> x /. float_of_int grain) f_units in
    (* Round to integrality with the Eulerian-orientation rounding. *)
    let rounded =
      if Array.for_all (fun x -> x = 0.) f_dir then
        { Rounding.Flow_rounding.f = f_dir; rounds = 0; levels = 0;
          phase_rounds = [] }
      else Rounding.Flow_rounding.round g ~s ~t ~delta f_dir
    in
    Runtime.Cost.charge ledger ~phase:"rounding"
      rounded.Rounding.Flow_rounding.rounds;
    let f_int = Array.map int_of_float rounded.Rounding.Flow_rounding.f in
    (* Exact repair with augmenting paths. *)
    let f_final, _gained, repairs =
      Ford_fulkerson.augment_from g ~s ~t ~initial:f_int
    in
    Log.debug (fun k ->
        k "max_flow: m=%d ipm_iterations=%d routed=%.3f repairs=%d" m !iters
          !val_routed repairs);
    Runtime.Cost.charge ledger ~phase:"repair"
      ((repairs + 1) * Runtime.Cost.apsp_rounds n);
    let value =
      let ex = Flow.excess g (Array.map float_of_int f_final) in
      int_of_float (Float.round (-.ex.(s)))
    in
    {
      f = Array.map float_of_int f_final;
      value;
      ipm_iterations = !iters;
      laplacian_solves = !solves;
      repair_augmentations = repairs;
      rounds = Runtime.Cost.rounds ledger;
      phase_rounds = Runtime.Cost.phases ledger;
    }
  end

let rounds_reference ~n ~m ~u =
  (* per progress step: two Theorem 1.1 solves at n^{o(1)} — proxied by the
     Chebyshev bound at a polylog κ — plus rounding and one repair. *)
  let solve_proxy =
    2 * Linalg.Chebyshev.iteration_bound ~kappa:64. ~eps:1e-8
  in
  (iterations_reference ~m ~u * solve_proxy)
  + (Runtime.Cost.log2_ceil (4 * m) * Euler.Orientation.rounds_reference ~n)
  + (2 * Runtime.Cost.apsp_rounds n)
