(* The chaos suite: deterministic fault injection against E1-E8-shaped
   workloads, proving the trichotomy on both kernels. With an empty fault
   schedule the faulty transport is an exact passthrough (bit-identical
   rounds, words, and sanitizer transcripts against the plain kernel).
   Under every non-empty schedule each workload ends in either a
   checker-certified answer (possibly after retries charged to the
   "recovery" phase) or a structured Fault_detected — never a silently
   wrong output. Runs standalone so CI can sweep schedules:
   CC_FAULTS="seed=9;drop:0.25" dune exec test/test_chaos.exe. *)

module S = Fault.Schedule
module C = Fault.Check
module San = Runtime.Sanitize
module K = Clique.Kernel

module FSim = Fault.Inject.Make (Clique.Sim)
module FRt = Runtime.Make (FSim)
module FP = Clique.Programs.Make (FRt)
module FRec = Fault.Recover.Make (FRt)

module FCon = Fault.Inject.Make (Clique.Congest)
module FCRt = Runtime.Make (FCon)
module FCP = Clique.Programs.Make (FCRt)
module FCRec = Fault.Recover.Make (FCRt)

(* ------------------------------------------------- shipping workloads *)

(* Ship-and-reassemble workloads: the artifact is computed once, fault
   free, outside the retry loop; what is exercised (and what the checker
   certifies) is its transfer through the possibly-faulty transport. The
   reassembly is total: malformed or missing shipped words degrade the
   artifact, they never crash the workload. *)
module Ship (R : Runtime.S) = struct
  (* Senders avoid node 0 (the collector), so no (0,0) self-message is
     ever routed — the CONGEST kernel has no self-loops. *)
  let owner n i = 1 + (i mod (n - 1))

  let scale = float_of_int (1 lsl 20)

  (* Per-edge orientation bits to node 0: payload (edge id, bit). *)
  let euler rt m bits =
    let n = R.n rt in
    let msgs =
      List.init m (fun id ->
          (owner n id, 0, [| id; (if bits.(id) then 1 else 0) |]))
    in
    let inboxes = R.route rt msgs in
    let got = Array.make m false in
    List.iter
      (fun (_src, p) ->
        if Array.length p = 2 && p.(0) >= 0 && p.(0) < m then
          got.(p.(0)) <- p.(1) land 1 = 1)
      inboxes.(0);
    got

  (* Every node broadcasts its fixed-point solution coordinate. *)
  let solver rt x =
    let n = R.n rt in
    let enc v = int_of_float (Float.round (v *. scale)) in
    let view = R.broadcast rt (Array.init n (fun v -> [| enc x.(v) |])) in
    Array.init n (fun v ->
        if Array.length view.(v) = 1 then float_of_int view.(v).(0) /. scale
        else 0.0)

  (* Per-arc integral flow values to node 0. *)
  let flow rt m f =
    let n = R.n rt in
    let msgs =
      List.init m (fun id ->
          (owner n id, 0, [| id; int_of_float (Float.round f.(id)) |]))
    in
    let inboxes = R.route rt msgs in
    let got = Array.make m 0.0 in
    List.iter
      (fun (_src, p) ->
        if Array.length p = 2 && p.(0) >= 0 && p.(0) < m then
          got.(p.(0)) <- float_of_int p.(1))
      inboxes.(0);
    got

  (* Sparsifier edges as (id, u, v, w) quadruples, width 4; invalid
     endpoints or non-positive weights are discarded on reassembly. *)
  let sparsifier rt sp =
    let n = R.n rt in
    let nodes = Graph.n sp in
    let edges = Graph.edges sp in
    let enc w = max 1 (int_of_float (Float.round (w *. 1024.0))) in
    let msgs =
      List.init (Array.length edges) (fun id ->
          let e = edges.(id) in
          (owner n id, 0, [| id; e.Graph.u; e.Graph.v; enc e.Graph.w |]))
    in
    let inboxes = R.route ~width:4 rt msgs in
    let acc = ref [] in
    List.iter
      (fun (_src, p) ->
        if Array.length p = 4 then begin
          let u = p.(1) and v = p.(2) and w = p.(3) in
          if u >= 0 && u < nodes && v >= 0 && v < nodes && u <> v && w > 0
          then
            acc :=
              { Graph.u; v; w = float_of_int w /. 1024.0 } :: !acc
        end)
      inboxes.(0);
    Graph.create nodes (List.rev !acc)
end

module ShipSim = Ship (FRt)
module ShipCon = Ship (FCRt)

(* ------------------------------------------------- shared fixed inputs *)

let n = 16

let g = Gen.connected_gnp ~seed:5L n 0.3

let geul = Gen.cycle_union ~seed:6L n 3

let euler_bits = (Euler.Orientation.orient geul).Euler.Orientation.orientation

let solver_b =
  let y = Array.init n (fun i -> float_of_int ((i * 13) mod 7) /. 5.0) in
  Graph.apply_laplacian g y

let solver_x = (Laplacian.Solver.solve g solver_b).Laplacian.Solver.x

let flow_net = Gen.layered_network ~seed:7L 3 3 5

let flow_f, flow_v =
  Dinic.max_flow flow_net ~s:0 ~t:(Digraph.n flow_net - 1)

let mcf_net, mcf_sigma = Gen.random_mcf ~seed:8L 10 30 6

let mcf_report =
  match Mcf_ssp.solve mcf_net ~sigma:mcf_sigma with
  | Some r -> r
  | None -> Alcotest.fail "fixture MCF instance must be feasible"

let sparsifier_sp =
  (Sparsify.Spectral.sparsify g).Sparsify.Spectral.sparsifier

(* --------------------------------------------- checker mutation tests *)

let expect_fail ~invariant what = function
  | C.Pass -> Alcotest.failf "%s: expected a counterexample, got pass" what
  | C.Fail { invariant = i; counterexample } ->
    Alcotest.(check string) (what ^ ": violated invariant") invariant i;
    Alcotest.(check bool) (what ^ ": counterexample is a witness") true
      (String.length counterexample > 0)

let expect_pass what = function
  | C.Pass -> ()
  | C.Fail _ as v ->
    Alcotest.failf "%s: known-good output rejected: %s" what
      (C.to_string v)

let test_check_bfs () =
  let dist = Traversal.bfs g 0 in
  expect_pass "bfs" (C.bfs_tree g ~root:0 dist);
  let d = Array.copy dist in
  d.(0) <- 1;
  expect_fail ~invariant:"root" "bfs root" (C.bfs_tree g ~root:0 d);
  let d = Array.copy dist in
  let far = ref 0 in
  Array.iteri (fun v dv -> if dv > d.(!far) then far := v) d;
  d.(!far) <- d.(!far) + 5;
  expect_fail ~invariant:"edge-level" "bfs inflated level"
    (C.bfs_tree g ~root:0 d);
  let d = Array.copy dist in
  d.(!far) <- -1;
  expect_fail ~invariant:"reachability" "bfs unreached node"
    (C.bfs_tree g ~root:0 d)

let test_check_sssp () =
  let pg =
    Graph.create 4
      [
        { Graph.u = 0; v = 1; w = 1.0 };
        { Graph.u = 1; v = 2; w = 2.0 };
        { Graph.u = 2; v = 3; w = 1.0 };
      ]
  in
  let dist = [| 0.0; 1.0; 3.0; 4.0 |] in
  expect_pass "sssp" (C.sssp pg ~src:0 dist);
  expect_fail ~invariant:"relaxation" "sssp overlong"
    (C.sssp pg ~src:0 [| 0.0; 1.0; 3.0; 4.5 |]);
  expect_fail ~invariant:"witness" "sssp unwitnessed"
    (C.sssp pg ~src:0 [| 0.0; 1.0; 3.0; 3.9 |]);
  expect_fail ~invariant:"root" "sssp nonzero source"
    (C.sssp pg ~src:0 [| 0.5; 1.0; 3.0; 4.0 |])

(* Perturb one unit of flow on an arc with an internal head, staying
   inside the arc's capacity so the capacity check cannot fire first. *)
let reroute_unit net f ~s ~t =
  let f' = Array.copy f in
  let arcs = Digraph.arcs net in
  let id = ref (-1) in
  Array.iteri
    (fun i (a : Digraph.arc) ->
      if !id < 0 && a.dst <> s && a.dst <> t then id := i)
    arcs;
  if !id < 0 then Alcotest.fail "fixture needs an internal-head arc";
  let i = !id in
  if f'.(i) +. 1.0 <= float_of_int arcs.(i).Digraph.cap then
    f'.(i) <- f'.(i) +. 1.0
  else f'.(i) <- f'.(i) -. 1.0;
  f'

let test_check_max_flow () =
  let t = Digraph.n flow_net - 1 in
  let value = float_of_int flow_v in
  expect_pass "maxflow"
    (C.max_flow flow_net ~s:0 ~t ~value flow_f);
  expect_fail ~invariant:"conservation" "maxflow rerouted unit"
    (C.max_flow flow_net ~s:0 ~t ~value (reroute_unit flow_net flow_f ~s:0 ~t));
  let f = Array.copy flow_f in
  f.(0) <- -1.0;
  expect_fail ~invariant:"capacity" "maxflow negative arc"
    (C.max_flow flow_net ~s:0 ~t ~value f);
  expect_fail ~invariant:"value" "maxflow wrong claim"
    (C.max_flow flow_net ~s:0 ~t ~value:(value +. 1.0) flow_f)

let test_check_mcf () =
  let f = mcf_report.Mcf_ssp.f and cost = mcf_report.Mcf_ssp.cost in
  expect_pass "mcf" (C.mcf mcf_net ~sigma:mcf_sigma ~cost_bound:cost f);
  (* Shift one unit within capacity: some vertex's excess no longer meets
     its demand. *)
  let f' = Array.copy f in
  let arcs = Digraph.arcs mcf_net in
  let id = ref (-1) in
  Array.iteri
    (fun i (a : Digraph.arc) ->
      if !id < 0 && f.(i) +. 1.0 <= float_of_int a.Digraph.cap then id := i)
    arcs;
  (if !id >= 0 then f'.(!id) <- f'.(!id) +. 1.0
   else f'.(0) <- f'.(0) -. 1.0);
  expect_fail ~invariant:"demand" "mcf rerouted unit"
    (C.mcf mcf_net ~sigma:mcf_sigma ~cost_bound:(cost +. 1000.0) f');
  expect_fail ~invariant:"cost" "mcf cost bound"
    (C.mcf mcf_net ~sigma:mcf_sigma ~cost_bound:(cost -. 0.5) f)

let test_check_eulerian () =
  expect_pass "eulerian" (C.eulerian geul euler_bits);
  let bits = Array.copy euler_bits in
  bits.(0) <- not bits.(0);
  expect_fail ~invariant:"in=out" "eulerian flipped edge"
    (C.eulerian geul bits);
  expect_fail ~invariant:"shape" "eulerian truncated"
    (C.eulerian geul (Array.sub euler_bits 0 (Graph.m geul - 1)))

let test_check_solver () =
  expect_pass "solver"
    (C.solver_residual ~eps:1e-3 g ~b:solver_b solver_x);
  let x = Array.copy solver_x in
  x.(0) <- x.(0) +. 1.0;
  expect_fail ~invariant:"residual" "solver perturbed coordinate"
    (C.solver_residual ~eps:1e-3 g ~b:solver_b x)

let test_check_sparsifier () =
  expect_pass "sparsifier" (C.sparsifier g sparsifier_sp);
  expect_fail ~invariant:"shape" "sparsifier node count"
    (C.sparsifier g (Graph.create (n - 1) []));
  expect_fail ~invariant:"connectivity" "sparsifier disconnected"
    (C.sparsifier g (Graph.create n []));
  let bound =
    Sparsify.Spectral.size_bound ~n ~u:(Float.max 1.0 (Graph.max_weight g))
  in
  let bloated =
    Graph.create n
      (List.init (bound + 1) (fun _ -> { Graph.u = 0; v = 1; w = 1.0 })
      @ List.init (n - 1) (fun i -> { Graph.u = i; v = i + 1; w = 1.0 }))
  in
  expect_fail ~invariant:"size-bound" "sparsifier too many edges"
    (C.sparsifier g bloated)

(* ------------------------------------------------ schedule spec tests *)

let test_schedule_spec () =
  let spec = "seed=7;drop:0.25;corrupt:0.1@phase=gather;stall:0.05@rounds=4-32" in
  (match S.of_string spec with
  | Error e -> Alcotest.failf "spec must parse: %s" e
  | Ok t ->
    Alcotest.(check int) "seed" 7 (S.seed t);
    Alcotest.(check int) "three rules" 3 (List.length (S.rules t));
    (match S.of_string (S.to_string t) with
    | Ok t' ->
      Alcotest.(check string) "to_string round-trips" (S.to_string t)
        (S.to_string t')
    | Error e -> Alcotest.failf "rendered spec must re-parse: %s" e));
  List.iter
    (fun bad ->
      match S.of_string bad with
      | Ok _ -> Alcotest.failf "spec %S must be rejected" bad
      | Error _ -> ())
    [ "drop:2.0"; "flip:0.1"; "drop:0.1@rounds=5-3"; "drop"; "seed=x" ]

let test_schedule_draw_determinism () =
  let t = S.create ~seed:42 [ S.rule S.Drop 0.5 ] in
  Alcotest.(check (float 0.0))
    "same coordinates, same draw"
    (S.draw t [ 1; 2; 3; 4 ])
    (S.draw t [ 1; 2; 3; 4 ]);
  Alcotest.(check bool) "different coordinates decorrelate" true
    (S.draw t [ 1; 2; 3; 4 ] <> S.draw t [ 1; 2; 3; 5 ]);
  let t' = S.create ~seed:43 [ S.rule S.Drop 0.5 ] in
  Alcotest.(check bool) "different seeds decorrelate" true
    (S.draw t [ 1; 2; 3; 4 ] <> S.draw t' [ 1; 2; 3; 4 ])

(* -------------------------------------------------- faults-off parity *)

(* The same deterministic pipeline driven over any runtime; parity
   compares a plain kernel against a faulty one with an empty schedule. *)
module Drive (R : Runtime.S) = struct
  module P = Clique.Programs.Make (R)
  module Sh = Ship (R)

  let run rt =
    ignore (P.bfs rt g 0);
    R.with_phase rt "ship-euler" (fun () ->
        ignore (Sh.euler rt (Graph.m geul) euler_bits));
    R.with_phase rt "ship-solver" (fun () -> ignore (Sh.solver rt solver_x));
    let tr =
      match R.sanitizer rt with
      | Some s -> San.transcript s
      | None -> Alcotest.fail "parity runs must be sanitized"
    in
    (R.rounds rt, R.words rt, tr.San.events, tr.San.shape_hash,
     tr.San.content_hash)
end

module DriveSim = Drive (K.On_sim)
module DriveFSim = Drive (FRt)
module DriveCon = Drive (K.On_congest)
module DriveFCon = Drive (FCRt)

let signature_t =
  Alcotest.(pair (triple int int int) (pair int64 int64))

let shape x = match x with r, w, e, sh, ch -> ((r, w, e), (sh, ch))

let test_parity_sim () =
  let plain =
    DriveSim.run (K.On_sim.create ~sanitize:true (Clique.Sim.create n))
  in
  let faulty =
    DriveFSim.run
      (FRt.create ~sanitize:true
         (FSim.inject ~schedule:S.empty (Clique.Sim.create n)))
  in
  Alcotest.check signature_t
    "empty schedule: rounds, words, and transcripts bit-identical"
    (shape plain) (shape faulty)

let test_parity_congest () =
  (* Complete communication topology so the routed shipments are legal on
     the CONGEST kernel too; the bfs still follows g's edges. *)
  let topo = Gen.complete n in
  let plain =
    DriveCon.run
      (K.On_congest.create ~sanitize:true (Clique.Congest.create topo))
  in
  let faulty =
    DriveFCon.run
      (FCRt.create ~sanitize:true
         (FCon.inject ~schedule:S.empty (Clique.Congest.create topo)))
  in
  Alcotest.check signature_t
    "empty schedule: rounds, words, and transcripts bit-identical"
    (shape plain) (shape faulty)

(* ------------------------------------------------- the fault schedules *)

let matrix =
  [
    ("drops", S.create ~seed:11 [ S.rule S.Drop 0.25 ]);
    ("corruption", S.create ~seed:12 [ S.rule S.Corrupt 0.3 ]);
    ( "mixed",
      S.create ~seed:13
        [
          S.rule S.Drop 0.15;
          S.rule S.Corrupt 0.15;
          S.rule S.Truncate 0.1;
          S.rule S.Stall 0.05;
          S.rule S.Crash 0.02;
        ] );
    ("first-round-burst", S.create ~seed:14 [ S.rule ~rounds:(0, 0) S.Drop 1.0 ]);
  ]
  @ (match S.of_env () with Some s -> [ ("env", s) ] | None -> [])

(* ------------------------------------------------------ trichotomy sweep *)

type outcome = Certified of { attempts : int; recovery : int } | Detected

(* Run one workload to its trichotomy verdict: a certified answer or a
   structured Fault_detected — anything else propagates and fails the
   test. Returns the injected-fault total either way. *)
let observe ~injected ~recovery run =
  let outcome =
    match run () with
    | (res : _ Fault.Recover.outcome) ->
      Certified { attempts = res.attempts; recovery = recovery () }
    | exception Fault.Recover.Fault_detected _ -> Detected
  in
  (outcome, injected ())

(* Each workload builds a fresh faulty kernel + runtime per run; what is
   swept is the transfer (and for bfs, the computation itself) under the
   schedule, certified by the matching checker. *)
let sim_workloads =
  let fresh schedule =
    let tr = FSim.inject ~schedule (Clique.Sim.create n) in
    let rt = FRt.create ~sanitize:false tr in
    let wrap run =
      observe
        ~injected:(fun () -> FSim.injected_total tr)
        ~recovery:(fun () -> FRt.phase_rounds rt "recovery")
        run
    in
    (rt, wrap)
  in
  [
    (* self_phased: bfs re-tags the ledger phase to "bfs" inside the
       retry, so its recovery cost is attributed there, not under
       "recovery"; its retries show only in the outcome's attempts. *)
    ( "bfs",
      `Self_phased,
      fun schedule ->
        let rt, wrap = fresh schedule in
        wrap (fun () ->
            FRec.run ~retries:3 ~name:"bfs" rt
              ~check:(fun d -> C.bfs_tree g ~root:0 d)
              (fun () -> FP.bfs rt g 0)) );
    ( "euler-ship",
      `Caller_phased,
      fun schedule ->
        let rt, wrap = fresh schedule in
        wrap (fun () ->
            FRec.run ~retries:3 ~name:"euler-ship" rt
              ~check:(C.eulerian geul)
              (fun () -> ShipSim.euler rt (Graph.m geul) euler_bits)) );
    ( "solver-ship",
      `Caller_phased,
      fun schedule ->
        let rt, wrap = fresh schedule in
        wrap (fun () ->
            FRec.run ~retries:3 ~name:"solver-ship" rt
              ~check:(fun x -> C.solver_residual ~eps:1e-3 g ~b:solver_b x)
              (fun () -> ShipSim.solver rt solver_x)) );
    ( "maxflow-ship",
      `Caller_phased,
      fun schedule ->
        let rt, wrap = fresh schedule in
        let t = Digraph.n flow_net - 1 in
        wrap (fun () ->
            FRec.run ~retries:3 ~name:"maxflow-ship" rt
              ~check:(fun f ->
                C.max_flow flow_net ~s:0 ~t ~value:(float_of_int flow_v) f)
              (fun () -> ShipSim.flow rt (Digraph.m flow_net) flow_f)) );
    ( "mcf-ship",
      `Caller_phased,
      fun schedule ->
        let rt, wrap = fresh schedule in
        wrap (fun () ->
            FRec.run ~retries:3 ~name:"mcf-ship" rt
              ~check:(fun f ->
                C.mcf mcf_net ~sigma:mcf_sigma
                  ~cost_bound:mcf_report.Mcf_ssp.cost f)
              (fun () ->
                ShipSim.flow rt (Digraph.m mcf_net) mcf_report.Mcf_ssp.f)) );
    ( "sparsifier-ship",
      `Caller_phased,
      fun schedule ->
        let rt, wrap = fresh schedule in
        wrap (fun () ->
            FRec.run ~retries:3 ~name:"sparsifier-ship" rt
              ~check:(C.sparsifier g)
              (fun () -> ShipSim.sparsifier rt sparsifier_sp)) );
  ]

let congest_workloads =
  let fresh topo schedule =
    let tr = FCon.inject ~schedule (Clique.Congest.create topo) in
    let rt = FCRt.create ~sanitize:false tr in
    let wrap run =
      observe
        ~injected:(fun () -> FCon.injected_total tr)
        ~recovery:(fun () -> FCRt.phase_rounds rt "recovery")
        run
    in
    (rt, wrap)
  in
  [
    ( "bfs",
      `Self_phased,
      fun schedule ->
        let rt, wrap = fresh g schedule in
        wrap (fun () ->
            FCRec.run ~retries:3 ~name:"bfs" rt
              ~check:(fun d -> C.bfs_tree g ~root:0 d)
              (fun () -> FCP.bfs rt g 0)) );
    ( "euler-ship",
      `Caller_phased,
      fun schedule ->
        let rt, wrap = fresh (Gen.complete n) schedule in
        wrap (fun () ->
            FCRec.run ~retries:3 ~name:"euler-ship" rt
              ~check:(C.eulerian geul)
              (fun () -> ShipCon.euler rt (Graph.m geul) euler_bits)) );
  ]

let sweep kernel workloads () =
  List.iter
    (fun (sname, schedule) ->
      let schedule_injected = ref 0 in
      List.iter
        (fun (wname, phasing, run) ->
          let what = Printf.sprintf "%s/%s/%s" kernel sname wname in
          let outcome, injected = run schedule in
          schedule_injected := !schedule_injected + injected;
          match outcome with
          | Certified { attempts; recovery } ->
            (* A retry is charged to the ledger's recovery phase, unless
               the workload re-tags the phase itself. *)
            if attempts > 1 && phasing = `Caller_phased then
              Alcotest.(check bool)
                (what ^ ": retries are charged to the recovery phase")
                true (recovery > 0)
          | Detected -> ())
        workloads;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: schedule injected at least one fault" kernel
           sname)
        true (!schedule_injected > 0))
    matrix

(* -------------------------------------------- the successful-retry path *)

let test_recovery_path () =
  (* A 4-cycle whose stored edge directions are chosen so the all-default
     reassembly is NOT balanced: losing the whole first shipment cannot
     masquerade as a certified answer. *)
  let g4 =
    Graph.create 4
      [
        { Graph.u = 0; v = 1; w = 1.0 };
        { Graph.u = 1; v = 2; w = 1.0 };
        { Graph.u = 2; v = 3; w = 1.0 };
        { Graph.u = 0; v = 3; w = 1.0 };
      ]
  in
  let bits =
    (Euler.Orientation.orient g4).Euler.Orientation.orientation
  in
  Alcotest.(check bool) "fixture: all-false reassembly is unbalanced" false
    (C.eulerian g4 (Array.make (Graph.m g4) false) = C.Pass);
  (* Drop every message of the first transport call; the retry starts at
     a later round, outside the burst window, and goes through clean. *)
  let schedule = S.create ~seed:14 [ S.rule ~rounds:(0, 0) S.Drop 1.0 ] in
  let tr = FSim.inject ~schedule (Clique.Sim.create 4) in
  let rt = FRt.create ~sanitize:false tr in
  let res =
    FRec.run ~retries:3 ~name:"euler-burst" rt
      ~check:(C.eulerian g4)
      (fun () -> ShipSim.euler rt (Graph.m g4) bits)
  in
  Alcotest.(check bool) "final verdict is pass" true
    (C.eulerian g4 res.Fault.Recover.value = C.Pass);
  Alcotest.(check int) "exactly one retry" 2 res.Fault.Recover.attempts;
  Alcotest.(check bool) "recovered" true res.Fault.Recover.recovered;
  Alcotest.(check bool) "recovery phase rounds > 0" true
    (FRt.phase_rounds rt "recovery" > 0);
  Alcotest.(check bool) "drops injected" true
    (Option.value ~default:0 (List.assoc_opt "drop" (FSim.injected tr)) > 0);
  Alcotest.(check int) "per-kind counts sum to the trace's length"
    (List.length (FSim.events tr))
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (FSim.injected tr));
  match FSim.events tr with
  | [] -> Alcotest.fail "fault trace must record the burst"
  | e :: _ ->
    Alcotest.(check string) "trace records the kind" "drop"
      (S.kind_name e.Fault.Inject.kind);
    Alcotest.(check int) "trace records the round" 0 e.Fault.Inject.round

(* ------------------------------- verify-and-retry without a runtime *)

(* [Fault.Recover.run] drives a computation that moves no messages (what
   cc_serve's recover policy runs): no clique, no phase, the same loop. *)
let test_recover_without_runtime () =
  let bits = (Euler.Orientation.orient geul).Euler.Orientation.orientation in
  let corrupt = Array.copy bits in
  corrupt.(0) <- not corrupt.(0);
  Alcotest.(check bool) "fixture: one flipped edge is rejected" false
    (C.eulerian geul corrupt = C.Pass);
  let calls = ref 0 in
  let res =
    Fault.Recover.run ~name:"euler-plain" ~check:(C.eulerian geul)
      (fun () ->
        incr calls;
        if !calls = 1 then corrupt else bits)
  in
  Alcotest.(check bool) "certified on retry" true
    (C.eulerian geul res.Fault.Recover.value = C.Pass);
  Alcotest.(check int) "attempts" 2 res.Fault.Recover.attempts;
  Alcotest.(check bool) "recovered" true res.Fault.Recover.recovered;
  let retries = 3 in
  (match
     Fault.Recover.run ~retries ~name:"euler-always-wrong"
       ~check:(C.eulerian geul) (fun () -> corrupt)
   with
  | _ -> Alcotest.fail "an always-failing check must exhaust the budget"
  | exception Fault.Recover.Fault_detected { workload; attempts; _ } ->
    Alcotest.(check string) "names the workload" "euler-always-wrong"
      workload;
    Alcotest.(check int) "attempts = retries + 1" (retries + 1) attempts)

(* ------------------------------------------- injection replay identity *)

let test_injection_determinism () =
  let run () =
    let schedule = S.create ~seed:11 [ S.rule S.Drop 0.25 ] in
    let tr = FSim.inject ~schedule (Clique.Sim.create n) in
    let rt = FRt.create ~sanitize:false tr in
    let got = ShipSim.euler rt (Graph.m geul) euler_bits in
    (got, FSim.injected tr, List.length (FSim.events tr))
  in
  let a1, i1, e1 = run () in
  let a2, i2, e2 = run () in
  Alcotest.(check (array bool)) "same degraded artifact" a1 a2;
  Alcotest.(check (list (pair string int))) "same injected counts" i1 i2;
  Alcotest.(check int) "same event count" e1 e2;
  Alcotest.(check bool) "the drops schedule really fired" true (e1 > 0)

(* -------------------------------------------------------------- suite *)

let () =
  Alcotest.run "chaos"
    [
      ( "checkers",
        [
          Alcotest.test_case "bfs mutations" `Quick test_check_bfs;
          Alcotest.test_case "sssp mutations" `Quick test_check_sssp;
          Alcotest.test_case "maxflow mutations" `Quick test_check_max_flow;
          Alcotest.test_case "mcf mutations" `Quick test_check_mcf;
          Alcotest.test_case "eulerian mutations" `Quick test_check_eulerian;
          Alcotest.test_case "solver mutations" `Quick test_check_solver;
          Alcotest.test_case "sparsifier mutations" `Quick
            test_check_sparsifier;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "CC_FAULTS spec grammar" `Quick
            test_schedule_spec;
          Alcotest.test_case "keyed draws are deterministic" `Quick
            test_schedule_draw_determinism;
        ] );
      ( "parity",
        [
          Alcotest.test_case "faults-off bit-identity (clique)" `Quick
            test_parity_sim;
          Alcotest.test_case "faults-off bit-identity (congest)" `Quick
            test_parity_congest;
        ] );
      ( "trichotomy",
        [
          Alcotest.test_case "schedule matrix (clique)" `Quick
            (sweep "clique" sim_workloads);
          Alcotest.test_case "schedule matrix (congest)" `Quick
            (sweep "congest" congest_workloads);
          Alcotest.test_case "successful retry path" `Quick
            test_recovery_path;
          Alcotest.test_case "retry without a runtime" `Quick
            test_recover_without_runtime;
          Alcotest.test_case "injection replay identity" `Quick
            test_injection_determinism;
        ] );
    ]
