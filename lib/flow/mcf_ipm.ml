let log_src = Logs.Src.create "repro.mincost" ~doc:"Theorem 1.3 min-cost-flow IPM"

module Log = (val Logs.src_log log_src : Logs.LOG)

type report = {
  f : Flow.t;
  cost : float;
  ipm_iterations : int;
  laplacian_solves : int;
  repair_augmentations : int;
  rounds : int;
  phase_rounds : (string * int) list;
}

let eta = 1. /. 14.

(* Shape reference for E6: CMSV run c_T·m^{1/2−3η} outer × m^{2η} inner
   iterations with c_T = 3·c_ρ·log W, c_ρ = 400√3·log^{1/3} W; we keep
   m^{3/7}·log W and drop the (enormous) constant so the curve is directly
   comparable to measured counts at bench sizes. *)
let iterations_reference ~m ~w =
  let mf = float_of_int (max m 2) in
  let lw = Float.max 1. (Float.log2 (float_of_int (max w 2))) in
  int_of_float (Float.ceil (lw *. (mf ** (0.5 -. eta))))

(* ---------------------------------------------------------------- lift *)

type lift = {
  lg : Digraph.t;
  m0 : int;
  v_aux : int;
  sigma_hat : int array;
}

let build_lift g ~sigma =
  if not (Digraph.is_unit_capacity g) then
    invalid_arg "Mcf_ipm.solve: capacities must be 1";
  let n = Digraph.n g in
  if Array.length sigma <> n then invalid_arg "Mcf_ipm.solve: sigma length";
  if Array.fold_left ( + ) 0 sigma <> 0 then
    invalid_arg "Mcf_ipm.solve: sigma must sum to zero";
  let v_aux = n in
  let big_cost =
    1 + Array.fold_left (fun a x -> a + abs x.Digraph.cost) 0 (Digraph.arcs g)
  in
  let arcs = ref (List.rev (Array.to_list (Digraph.arcs g))) in
  (* 2t(v) = 2σ(v) + deg_in − deg_out auxiliary unit arcs per vertex
     (Algorithm 7): with f = ½ everywhere they absorb exactly t(v). *)
  for v = 0 to n - 1 do
    let two_t =
      (2 * sigma.(v)) + Digraph.in_degree g v - Digraph.out_degree g v
    in
    for _ = 1 to abs two_t do
      if two_t > 0 then
        arcs := { Digraph.src = v; dst = v_aux; cap = 1; cost = big_cost } :: !arcs
      else
        arcs := { Digraph.src = v_aux; dst = v; cap = 1; cost = big_cost } :: !arcs
    done
  done;
  let lg = Digraph.create (n + 1) (List.rev !arcs) in
  let sigma_hat = Array.make (n + 1) 0 in
  Array.blit sigma 0 sigma_hat 0 n;
  { lg; m0 = Digraph.m g; v_aux; sigma_hat }

(* ------------------------------------------------------------------ IPM *)

(* One central-path iteration: Newton/electrical step at the current µ.
   Returns (rounds, ||ρ||₄). *)
let newton_step ~solver lift support f mu =
  let lg = lift.lg in
  let mh = Digraph.m lg in
  let nh = Digraph.n lg in
  let cost_of e = float_of_int (Digraph.arc lg e).Digraph.cost in
  let w = Array.make mh 0. in
  let gvec = Array.make mh 0. in
  for e = 0 to mh - 1 do
    let fe = f.(e) in
    let h = mu *. ((1. /. (fe *. fe)) +. (1. /. ((1. -. fe) *. (1. -. fe)))) in
    w.(e) <- 1. /. h;
    gvec.(e) <- cost_of e -. (mu /. fe) +. (mu /. (1. -. fe))
  done;
  (* rhs = B W g with (Bx)_v = inflow − outflow. *)
  let rhs = Linalg.Vec.create nh in
  Array.iteri
    (fun e a ->
      let x = w.(e) *. gvec.(e) in
      rhs.(a.Digraph.dst) <- rhs.(a.Digraph.dst) +. x;
      rhs.(a.Digraph.src) <- rhs.(a.Digraph.src) -. x)
    (Digraph.arcs lg);
  let elec =
    Electrical.compute ~solver ~support ~resistance:(fun e -> 1. /. w.(e)) ~b:rhs ()
  in
  let lambda = elec.Electrical.potentials in
  (* Δf = W(Bᵀλ − g); Bᵀλ on arc (u,v) is λ_v − λ_u. *)
  let df = Array.make mh 0. in
  Array.iteri
    (fun e a ->
      df.(e) <-
        w.(e) *. (lambda.(a.Digraph.dst) -. lambda.(a.Digraph.src) -. gvec.(e)))
    (Digraph.arcs lg);
  (* Congestion and step size. *)
  let rho4 = ref 0. in
  let gamma = ref 1. in
  for e = 0 to mh - 1 do
    let slack = Float.min f.(e) (1. -. f.(e)) in
    let r = Float.abs df.(e) /. slack in
    rho4 := !rho4 +. (r *. r *. r *. r);
    if Float.abs df.(e) > 1e-15 then
      gamma := Float.min !gamma (0.25 *. slack /. Float.abs df.(e))
  done;
  let rho4 = !rho4 ** 0.25 in
  for e = 0 to mh - 1 do
    f.(e) <- f.(e) +. (!gamma *. df.(e))
  done;
  (elec.Electrical.solver_rounds + 2, rho4)

(* Re-center the demand after float drift: one electrical correction. *)
let fix_demand ~solver lift support f =
  let lg = lift.lg in
  let nh = Digraph.n lg in
  let viol = Linalg.Vec.create nh in
  Array.iteri
    (fun e a ->
      viol.(a.Digraph.dst) <- viol.(a.Digraph.dst) +. f.(e);
      viol.(a.Digraph.src) <- viol.(a.Digraph.src) -. f.(e))
    (Digraph.arcs lg);
  for v = 0 to nh - 1 do
    viol.(v) <- viol.(v) +. float_of_int lift.sigma_hat.(v)
  done;
  let drift = Linalg.Vec.norm_inf viol in
  if drift < 1e-12 then 0
  else begin
    let w e =
      let fe = f.(e) in
      let slack = Float.min fe (1. -. fe) in
      slack *. slack
    in
    let elec =
      Electrical.compute ~solver ~support ~resistance:(fun e -> 1. /. w e)
        ~b:(Array.map (fun x -> -.x) viol)
        ()
    in
    Array.iteri
      (fun e fe ->
        let capped =
          let slack = 0.5 *. Float.min f.(e) (1. -. f.(e)) in
          Float.max (-.slack) (Float.min fe slack)
        in
        f.(e) <- f.(e) +. capped)
      elec.Electrical.flow;
    elec.Electrical.solver_rounds
  end

(* --------------------------------------------------------------- repair *)

(* Residual arcs for the unit-capacity integral flow: saturated arcs flip.
   Bellman–Ford negative-cycle cancelling until optimal. *)
let cancel_negative_cycles g f =
  let m = Digraph.m g in
  let n = Digraph.n g in
  let cancellations = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    (* Residual arc e: usable forward if f=0 (cost +c), backward if f=1
       (cost −c). Run BF from a virtual source connected to everyone. *)
    let dist = Array.make n 0. in
    let parent = Array.make n (-1) in
    (* residual arc code: 2e forward, 2e+1 backward *)
    let relaxed = ref true in
    let last_relaxed = ref (-1) in
    let iters = ref 0 in
    while !relaxed && !iters <= n do
      relaxed := false;
      incr iters;
      Array.iteri
        (fun e a ->
          let c = float_of_int a.Digraph.cost in
          if f.(e) < 0.5 then begin
            if dist.(a.Digraph.src) +. c < dist.(a.Digraph.dst) -. 1e-9 then begin
              dist.(a.Digraph.dst) <- dist.(a.Digraph.src) +. c;
              parent.(a.Digraph.dst) <- 2 * e;
              relaxed := true;
              last_relaxed := a.Digraph.dst
            end
          end
          else if dist.(a.Digraph.dst) -. c < dist.(a.Digraph.src) -. 1e-9 then begin
            dist.(a.Digraph.src) <- dist.(a.Digraph.dst) -. c;
            parent.(a.Digraph.src) <- (2 * e) + 1;
            relaxed := true;
            last_relaxed := a.Digraph.src
          end)
        (Digraph.arcs g)
    done;
    (* The loop exits either converged (last pass relaxed nothing) or still
       relaxing after n passes — only the latter certifies a cycle. *)
    if (not !relaxed) || !last_relaxed < 0 then continue_ := false
    else begin
      (* A vertex relaxed in round n+1 lies on / reaches a negative cycle:
         walk parents n steps to land on it, then trace the cycle. *)
      let v = ref !last_relaxed in
      for _ = 1 to n do
        let code = parent.(!v) in
        if code >= 0 then begin
          let e = code / 2 in
          let a = Digraph.arc g e in
          v := if code land 1 = 0 then a.Digraph.src else a.Digraph.dst
        end
      done;
      let start = !v in
      let cycle = ref [] in
      let cur = ref start in
      let rec trace () =
        let code = parent.(!cur) in
        let e = code / 2 in
        let a = Digraph.arc g e in
        cycle := code :: !cycle;
        cur := (if code land 1 = 0 then a.Digraph.src else a.Digraph.dst);
        if !cur <> start && List.length !cycle <= m + n then trace ()
      in
      trace ();
      if !cur <> start then continue_ := false
      else begin
        incr cancellations;
        List.iter
          (fun code ->
            let e = code / 2 in
            if code land 1 = 0 then f.(e) <- 1. else f.(e) <- 0.)
          !cycle
      end
    end
  done;
  !cancellations

(* Route remaining demand deficits along residual shortest paths. Returns
   None when some deficit cannot be routed (infeasible instance). *)
let route_deficits g sigma f =
  let n = Digraph.n g in
  let augmentations = ref 0 in
  let deficit () =
    let ex = Flow.excess g f in
    let supply = ref [] and demand = ref [] in
    for v = 0 to n - 1 do
      let d = ex.(v) +. float_of_int sigma.(v) in
      if d > 0.5 then supply := v :: !supply
      else if d < -0.5 then demand := v :: !demand
    done;
    (!supply, !demand)
  in
  let feasible = ref true in
  let continue_ = ref true in
  while !continue_ && !feasible do
    match deficit () with
    | [], [] -> continue_ := false
    | supply, demand when supply <> [] && demand <> [] ->
      (* Bellman–Ford over residual arcs from all surplus vertices. *)
      let dist = Array.make n infinity in
      let parent = Array.make n (-1) in
      List.iter (fun v -> dist.(v) <- 0.) supply;
      let changed = ref true in
      let rounds = ref 0 in
      while !changed && !rounds <= n do
        changed := false;
        incr rounds;
        Array.iteri
          (fun e a ->
            let c = float_of_int a.Digraph.cost in
            if f.(e) < 0.5 then begin
              if
                dist.(a.Digraph.src) +. c < dist.(a.Digraph.dst) -. 1e-9
                && dist.(a.Digraph.src) < infinity
              then begin
                dist.(a.Digraph.dst) <- dist.(a.Digraph.src) +. c;
                parent.(a.Digraph.dst) <- 2 * e;
                changed := true
              end
            end
            else if
              dist.(a.Digraph.dst) -. c < dist.(a.Digraph.src) -. 1e-9
              && dist.(a.Digraph.dst) < infinity
            then begin
              dist.(a.Digraph.src) <- dist.(a.Digraph.dst) -. c;
              parent.(a.Digraph.src) <- (2 * e) + 1;
              changed := true
            end)
          (Digraph.arcs g)
      done;
      let target =
        List.fold_left
          (fun best v ->
            match best with
            | Some b when dist.(b) <= dist.(v) -> best
            | _ -> if dist.(v) < infinity then Some v else best)
          None demand
      in
      begin
        match target with
        | None -> feasible := false
        | Some t ->
          incr augmentations;
          let cur = ref t in
          let steps = ref 0 in
          while parent.(!cur) >= 0 && !steps <= n + 1 do
            incr steps;
            let code = parent.(!cur) in
            let e = code / 2 in
            let a = Digraph.arc g e in
            if code land 1 = 0 then begin
              f.(e) <- 1.;
              cur := a.Digraph.src
            end
            else begin
              f.(e) <- 0.;
              cur := a.Digraph.dst
            end
          done
      end
    | _ -> feasible := false
  done;
  if !feasible then Some !augmentations else None

(* ----------------------------------------------------------------- solve *)

(* Shared Repairing phase (Algorithm 10's role): gather, decompose through a
   super source/sink, quantize, cost-aware round, route deficits, cancel
   negative cycles, detect infeasibility via stuck auxiliary arcs. Returns
   the exact original-arc flow and the repair-operation count. *)
let round_and_repair lift f ledger =
  let lg = lift.lg in
  let mh = Digraph.m lg in
  let n = Digraph.n lg - 1 in
  let grid_bits = Runtime.Cost.log2_ceil (8 * mh) + 1 in
  let delta = 1. /. float_of_int (1 lsl grid_bits) in
  Runtime.Cost.charge ledger ~phase:"gather"
    (Runtime.Cost.gather_rounds ~n:(max n 2) ~m:mh
       ~bits_per_edge:((2 * Runtime.Cost.log2_ceil (max n 2)) + grid_bits));
  let ss = Digraph.n lg and tt = Digraph.n lg + 1 in
  let ext_arcs = ref [] in
  let ext_flow = ref [] in
  Array.iter (fun a -> ext_arcs := a :: !ext_arcs) (Digraph.arcs lg);
  Array.iteri (fun e _ -> ext_flow := f.(e) :: !ext_flow) (Digraph.arcs lg);
  Array.iteri
    (fun v s ->
      if s > 0 then begin
        ext_arcs := { Digraph.src = ss; dst = v; cap = s; cost = 0 } :: !ext_arcs;
        ext_flow := float_of_int s :: !ext_flow
      end
      else if s < 0 then begin
        ext_arcs := { Digraph.src = v; dst = tt; cap = -s; cost = 0 } :: !ext_arcs;
        ext_flow := float_of_int (-s) :: !ext_flow
      end)
    lift.sigma_hat;
  let ext = Digraph.create (Digraph.n lg + 2) (List.rev !ext_arcs) in
  let fx = Array.of_list (List.rev !ext_flow) in
  let items = Decompose.decompose ~tol:(delta /. 8.) ext ~s:ss ~t:tt fx in
  let paths = Decompose.quantize_paths ~delta items in
  let fq = Decompose.accumulate ext paths in
  let arc_cost e = float_of_int (Digraph.arc ext e).Digraph.cost in
  let rounded =
    if Array.for_all (fun x -> x = 0.) fq then
      { Rounding.Flow_rounding.f = fq; rounds = 0; levels = 0;
        phase_rounds = [] }
    else Rounding.Flow_rounding.round ~cost:arc_cost ext ~s:ss ~t:tt ~delta fq
  in
  Runtime.Cost.charge ledger ~phase:"rounding"
    rounded.Rounding.Flow_rounding.rounds;
  let f_lift = Array.sub rounded.Rounding.Flow_rounding.f 0 mh in
  match route_deficits lg lift.sigma_hat f_lift with
  | None -> None
  | Some deficit_augs ->
    let cancels = cancel_negative_cycles lg f_lift in
    let repair = deficit_augs + cancels in
    Runtime.Cost.charge ledger ~phase:"repair"
      ((repair + 1) * Runtime.Cost.apsp_rounds (max n 2));
    let aux_used =
      let used = ref false in
      for e = lift.m0 to mh - 1 do
        if f_lift.(e) > 0.5 then used := true
      done;
      !used
    in
    if aux_used then None else Some (Array.sub f_lift 0 lift.m0, repair)

let solve ?(solver = Electrical.Cg 1e-10) g ~sigma =
  let lift = build_lift g ~sigma in
  let lg = lift.lg in
  let mh = Digraph.m lg in
  let w_max = max 1 (Digraph.max_cost g) in
  let ledger = Runtime.Cost.create () in
  let support = Graph.create (Digraph.n lg)
      (Array.to_list (Digraph.arcs lg)
      |> List.map (fun a ->
             { Graph.u = a.Digraph.src; v = a.Digraph.dst; w = 1. }))
  in
  let f = Array.make mh 0.5 in
  let mu = ref (float_of_int (1 + Digraph.max_cost lg)) in
  let mu_end = 1. /. (32. *. float_of_int mh) in
  let cap = 150 + (20 * iterations_reference ~m:(Digraph.m g) ~w:w_max) in
  let iters = ref 0 in
  let solves = ref 0 in
  while !mu > mu_end && !iters < cap do
    incr iters;
    let step_rounds, rho4 = newton_step ~solver lift support f !mu in
    incr solves;
    Runtime.Cost.charge ledger ~phase:"ipm" step_rounds;
    (* CMSV's µ-reduction rule: cap the rate by the observed congestion
       (this is where their Perturbation loop does its work). *)
    let delta = Float.min 0.125 (1. /. (8. *. Float.max rho4 1e-9)) in
    mu := !mu *. (1. -. delta);
    if !iters mod 8 = 0 then begin
      let r = fix_demand ~solver lift support f in
      if r > 0 then begin
        incr solves;
        Runtime.Cost.charge ledger ~phase:"ipm" r
      end
    end
  done;
  Log.debug (fun k ->
      k "solve: m=%d iterations=%d final_mu=%.2e" mh !iters !mu);
  match round_and_repair lift f ledger with
  | None -> None
  | Some (f_final, repair) ->
    Some
      {
        f = f_final;
        cost = Flow.cost g f_final;
        ipm_iterations = !iters;
        laplacian_solves = !solves;
        repair_augmentations = repair;
        rounds = Runtime.Cost.rounds ledger;
        phase_rounds = Runtime.Cost.phases ledger;
      }

(* §2.4: min-cost max s-t flow reduces to min-cost flow by binary search
   over the flow value. *)
let solve_max_flow_min_cost ?solver g ~s ~t =
  Flow.check_terminals "Mcf_ipm.solve_max_flow_min_cost" g ~s ~t;
  let n = Digraph.n g in
  let upper =
    List.fold_left (fun a id -> a + (Digraph.arc g id).Digraph.cap) 0
      (Digraph.out_arcs g s)
  in
  let probe_count = ref 0 in
  let attempt f =
    incr probe_count;
    let sigma = Array.make n 0 in
    sigma.(s) <- f;
    sigma.(t) <- -f;
    solve ?solver g ~sigma
  in
  (* Largest feasible value by binary search. *)
  let rec search lo hi best =
    if lo > hi then best
    else begin
      let mid = (lo + hi) / 2 in
      match attempt mid with
      | Some r -> search (mid + 1) hi (Some r)
      | None -> search lo (mid - 1) best
    end
  in
  match search 0 upper None with
  | None -> None
  | Some r -> Some (r, !probe_count)
