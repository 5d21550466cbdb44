(* Job execution: artifact cache, certification policy, per-kind
   pipelines. This is driver-layer code in the sense of DESIGN.md §8 —
   it may invoke Fault.Recover (cc_lint L7 confines that to layers whose
   rounds are not charged to an algorithm's ledger). *)

module Json = Metrics.Json

type policy = Off | Verify | Recover

let policy_of_string = function
  | "none" | "off" | "" -> Ok Off
  | "verify" -> Ok Verify
  | "recover" -> Ok Recover
  | s -> Error (Printf.sprintf "unknown policy %S (none|verify|recover)" s)

let policy_name = function
  | Off -> "none"
  | Verify -> "verify"
  | Recover -> "recover"

type artifact =
  | A_solve of { g : Graph.t; solve : Linalg.Vec.t -> Laplacian.Solver.report }
  | A_sparsify of Sparsify.Spectral.result * int * bool
  | A_maxflow of Maxflow_ipm.report * int * bool
  | A_mst of Clique.Boruvka.result * int * bool

type outcome = {
  fields : (string * Json.t) list;
  rounds : int;
  cache : [ `Hit | `Miss | `Bypass ];
  attempts : int;
  recovered : bool;
}

exception Refused of string

let kind_mismatch () = raise (Refused "cache entry kind mismatch")

(* Run [compute] under the certification [policy]. [inject] corrupts the
   first execution's output (via [corrupt]) — the deterministic test hook
   for the recovery path: under [Off] the corrupt answer escapes, under
   [Verify] it is refused, under [Recover] it is retried and certified. *)
let with_policy ~policy ~inject ~name ~check ~corrupt compute =
  let first = ref true in
  let attempt () =
    let v = compute () in
    if inject && !first then begin
      first := false;
      corrupt v
    end
    else v
  in
  match policy with
  | Off -> (attempt (), 1, false)
  | Verify -> (
    let v = attempt () in
    match check v with
    | Fault.Check.Pass -> (v, 1, false)
    | Fault.Check.Fail _ as f ->
      raise (Refused ("certification failed: " ^ Fault.Check.to_string f)))
  | Recover -> (
    try
      let o = Fault.Recover.run ~name ~check attempt in
      ( o.Fault.Recover.value,
        o.Fault.Recover.attempts,
        o.Fault.Recover.recovered )
    with Fault.Recover.Fault_detected { workload; attempts; cause } ->
      raise
        (Refused
           (Printf.sprintf "recovery exhausted for %s after %d attempts: %s"
              workload attempts cause)))

let hex_of_vec x = Fingerprint.to_hex (Fingerprint.vec Wire.Fnv.offset x)

(* ------------------------------------------------------------- solve *)

let corrupt_report (r : Laplacian.Solver.report) =
  let x = Linalg.Vec.copy r.Laplacian.Solver.x in
  if Array.length x > 0 then x.(0) <- x.(0) +. 1.;
  { r with Laplacian.Solver.x }

let solve_fields ~return_x (r : Laplacian.Solver.report) =
  let base =
    [
      ("x_fnv", Json.String (hex_of_vec r.Laplacian.Solver.x));
      ("residual", Json.Float r.Laplacian.Solver.residual);
      ("iterations", Json.Int r.Laplacian.Solver.iterations);
      ("kappa", Json.Float r.Laplacian.Solver.kappa);
      ("sparsifier_edges", Json.Int r.Laplacian.Solver.sparsifier_edges);
      ("rounds", Json.Int r.Laplacian.Solver.rounds);
    ]
  in
  if return_x then
    base
    @ [
        ( "x",
          Json.List
            (Array.to_list
               (Array.map (fun v -> Json.Float v) r.Laplacian.Solver.x)) );
      ]
  else base

let run_solve ~policy ~cache ~inject ~nocache ~g ~b ~solver ~eps ~return_x =
  (* Either method is a prepare step and a solve closure over its handle.
     Prepare stays outside [with_policy]: a Recover retry re-solves on the
     same handle. The graph is built (a generator run) only here, on a
     miss or under [nocache]; the artifact keeps it, so a hit checks its
     rhs and certifies its answer against the graph it was prepared
     from. *)
  let key_prefix, prepare_solve =
    match solver with
    | Job.Chebyshev ->
      ( "solve-cheb:",
        fun g -> Laplacian.Solver.(solve_prepared (prepare ~eps g)) )
    | Job.Cg_baseline ->
      ( "solve-cg:",
        fun g -> Laplacian.Solver.(solve_cg_prepared (prepare_cg ~eps g)) )
  in
  let build () =
    let g = Job.build g in
    (* A wrong-length rhs is refused before the prepare it would waste;
       the refused build leaves no entry and evicts none. *)
    (match Job.rhs b ~n:(Graph.n g) with
    | Ok _ -> ()
    | Error msg -> raise (Refused msg));
    A_solve { g; solve = prepare_solve g }
  in
  let solve_with = function
    | A_solve { g; solve } ->
      let b =
        match Job.rhs b ~n:(Graph.n g) with
        | Ok b -> b
        | Error msg -> raise (Refused msg)
      in
      (* The solver answers L x = b in the pseudo-inverse sense: it solves
         against the centered rhs (the component of b along 1 is outside
         range L), so that is what the residual must be measured against —
         checking raw b would report mean(b)·1 as a phantom residual and
         refuse honest answers. *)
      let b_centered = Linalg.Vec.center b in
      let check (r : Laplacian.Solver.report) =
        Fault.Check.solver_residual g ~b:b_centered r.Laplacian.Solver.x
      in
      with_policy ~policy ~inject ~name:"serve.solve" ~check
        ~corrupt:corrupt_report (fun () -> solve b)
    | _ -> kind_mismatch ()
  in
  let (report, attempts, recovered), cache_state =
    if nocache then (solve_with (build ()), `Bypass)
    else
      let key =
        Printf.sprintf "%s%s:eps=%Lx" key_prefix
          (Job.key Fingerprint.graph g)
          (Int64.bits_of_float eps)
      in
      let r, hit = Cache.use cache key ~build solve_with in
      (r, if hit then `Hit else `Miss)
  in
  {
    fields = solve_fields ~return_x report;
    rounds = report.Laplacian.Solver.rounds;
    cache = cache_state;
    attempts;
    recovered;
  }

(* --------------------------------------- memoized kinds (shared shape) *)

(* Sparsify / maxflow / MST results depend only on the instance, so the
   certified result itself is the cached artifact, stored together with
   how many executions certification took. A hit reports [attempts = 0]:
   nothing ran on behalf of that request. *)
let memoized ~cache ~nocache ~key ~build ~wrap ~extract ~fields ~rounds =
  if nocache then
    let v, attempts, recovered = build () in
    {
      fields = fields v;
      rounds = rounds v;
      cache = `Bypass;
      attempts;
      recovered;
    }
  else
    let (v, attempts, recovered), hit =
      Cache.use cache key ~build:(fun () -> wrap (build ())) extract
    in
    {
      fields = fields v;
      rounds = rounds v;
      cache = (if hit then `Hit else `Miss);
      attempts = (if hit then 0 else attempts);
      recovered = (if hit then false else recovered);
    }

let run ~policy ~cache (job : Job.t) =
  let inject = job.Job.inject in
  let nocache = job.Job.nocache in
  try
    match job.Job.payload with
    | Job.Stats | Job.Shutdown ->
      Error "internal: control jobs are handled by the listener"
    | Job.Solve { g; b; solver; eps; return_x } ->
      Ok
        (run_solve ~policy ~cache ~inject ~nocache ~g ~b ~solver ~eps
           ~return_x)
    | Job.Sparsify { g } ->
      Ok
        (memoized ~cache ~nocache
           ~key:("sparsify:" ^ Job.key Fingerprint.graph g)
           ~build:(fun () ->
             let g = Job.build g in
             let check (r : Sparsify.Spectral.result) =
               Fault.Check.sparsifier g r.Sparsify.Spectral.sparsifier
             in
             let corrupt (r : Sparsify.Spectral.result) =
               {
                 r with
                 Sparsify.Spectral.sparsifier = Graph.create (Graph.n g) [];
               }
             in
             with_policy ~policy ~inject ~name:"serve.sparsify" ~check
               ~corrupt (fun () ->
                 Sparsify.Spectral.sparsify g))
           ~wrap:(fun (v, a, r) -> A_sparsify (v, a, r))
           ~extract:(function
             | A_sparsify (v, a, r) -> (v, a, r)
             | _ -> kind_mismatch ())
           ~fields:(fun (r : Sparsify.Spectral.result) ->
             [
               ("edges", Json.Int (Graph.m r.Sparsify.Spectral.sparsifier));
               ("levels", Json.Int r.Sparsify.Spectral.levels);
               ("classes", Json.Int r.Sparsify.Spectral.classes);
               ( "h_fnv",
                 Json.String
                   (Fingerprint.to_hex
                      (Fingerprint.graph r.Sparsify.Spectral.sparsifier)) );
               ("rounds", Json.Int r.Sparsify.Spectral.rounds);
             ])
           ~rounds:(fun r -> r.Sparsify.Spectral.rounds))
    | Job.Maxflow { net; s; t } ->
      (* An omitted sink keys as "last": the key must not depend on the
         network, which a spec does not have yet. *)
      let key =
        Printf.sprintf "maxflow:%d:%s:%s" s
          (match t with Some t -> string_of_int t | None -> "last")
          (Job.key Fingerprint.digraph net)
      in
      Ok
        (memoized ~cache ~nocache ~key
           ~build:(fun () ->
             let net = Job.build net in
             let t = Option.value t ~default:(Digraph.n net - 1) in
             let check (r : Maxflow_ipm.report) =
               Fault.Check.max_flow net ~s ~t
                 ~value:(float_of_int r.Maxflow_ipm.value)
                 r.Maxflow_ipm.f
             in
             let corrupt (r : Maxflow_ipm.report) =
               { r with Maxflow_ipm.value = r.Maxflow_ipm.value + 1 }
             in
             with_policy ~policy ~inject ~name:"serve.maxflow" ~check
               ~corrupt (fun () ->
                 Maxflow_ipm.max_flow net ~s ~t))
           ~wrap:(fun (v, a, r) -> A_maxflow (v, a, r))
           ~extract:(function
             | A_maxflow (v, a, r) -> (v, a, r)
             | _ -> kind_mismatch ())
           ~fields:(fun (r : Maxflow_ipm.report) ->
             [
               ("value", Json.Int r.Maxflow_ipm.value);
               ("ipm_iterations", Json.Int r.Maxflow_ipm.ipm_iterations);
               ("laplacian_solves", Json.Int r.Maxflow_ipm.laplacian_solves);
               ( "repair_augmentations",
                 Json.Int r.Maxflow_ipm.repair_augmentations );
               ("rounds", Json.Int r.Maxflow_ipm.rounds);
             ])
           ~rounds:(fun r -> r.Maxflow_ipm.rounds))
    | Job.Mst { g } ->
      Ok
        (memoized ~cache ~nocache
           ~key:("mst:" ^ Job.key Fingerprint.graph g)
           ~build:(fun () ->
             let g = Job.build g in
             let check (r : Clique.Boruvka.result) =
               Fault.Check.mst g ~weight:r.Clique.Boruvka.weight
                 r.Clique.Boruvka.edges
             in
             let corrupt (r : Clique.Boruvka.result) =
               { r with Clique.Boruvka.weight = r.Clique.Boruvka.weight +. 1. }
             in
             with_policy ~policy ~inject ~name:"serve.mst" ~check ~corrupt
               (fun () ->
                 Clique.Boruvka.minimum_spanning_tree g))
           ~wrap:(fun (v, a, r) -> A_mst (v, a, r))
           ~extract:(function
             | A_mst (v, a, r) -> (v, a, r)
             | _ -> kind_mismatch ())
           ~fields:(fun (r : Clique.Boruvka.result) ->
             [
               ("weight", Json.Float r.Clique.Boruvka.weight);
               ("edge_count", Json.Int (List.length r.Clique.Boruvka.edges));
               ( "edges_fnv",
                 Json.String
                   (Fingerprint.to_hex
                      (Wire.Fnv.add_ints Wire.Fnv.offset
                         r.Clique.Boruvka.edges)) );
               ("rounds", Json.Int r.Clique.Boruvka.rounds);
             ])
           ~rounds:(fun r -> r.Clique.Boruvka.rounds))
  with
  | Refused msg -> Error msg
  | Invalid_argument msg | Failure msg -> Error msg
