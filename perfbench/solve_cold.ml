(* solve-cold: Theorem 1.1 solves in process, each on a graph the process
   has not prepared — the whole pipeline every op. Sparsification
   (expander decomposition per weight class) dominates, so this is the
   workload where sparsify and expander work shows; serve-hot uses the
   same graph family the other way round (prepare once, reuse). *)

open Measure

(* Graph sizes are spread evenly over [n_min, n_max], around serve-hot's
   160. The host this benchmark was built on switches between a fast and
   a slow state; ops of a single size then form two tight latency
   clusters, and the median jumps between them as the share of slow ops
   crosses one half. A continuum of sizes keeps the latency distribution
   continuous, so the median moves smoothly. *)
let fleet_size = 24

let n_min = 128

let n_max = 192

let p = 0.3

let u = 8

type instance = { g : Graph.t; b : Linalg.Vec.t; b_centered : Linalg.Vec.t }

let build_fleet seed =
  Array.init fleet_size (fun i ->
      let gseed = (seed * fleet_size) + i in
      let n = n_min + ((n_max - n_min) * i / (fleet_size - 1)) in
      let b = rhs ~seed:(gseed lxor 0x5eed) n in
      {
        g = Gen.weighted_gnp ~seed:(Int64.of_int gseed) n p u;
        b;
        b_centered = Linalg.Vec.center b;
      })

(* What the metrics need of one op; the report itself is dropped. *)
type summary = {
  rounds : int;
  iterations : int;
  phase_rounds : (string * int) list;
  x_fnv : int64;
}

let failed = { rounds = 0; iterations = 0; phase_rounds = []; x_fnv = 0L }

(* Op [id] on [inst]: [solve] is on the clock, the residual check is not.
   An exception fails the op, not the run. *)
let window ~seconds ~fleet ~fails ~id0 solve =
  let done_ = ref [] in
  let w =
    run_window ~seconds ~cycle:fleet_size ~cpu:(Per_op self_cpu_s)
      (fun k timed ->
        let id = id0 + k in
        let inst = fleet.(k mod fleet_size) in
        let summary =
          match timed (fun () -> try Ok (solve id inst) with e -> Error e) with
          | Error e ->
            Failures.add fails id ("exception " ^ Printexc.to_string e);
            failed
          | Ok r ->
            (match
               Fault.Check.solver_residual inst.g ~b:inst.b_centered
                 r.Laplacian.Solver.x
             with
            | Fault.Check.Pass -> ()
            | f -> Failures.add fails id (Fault.Check.to_string f));
            {
              rounds = r.Laplacian.Solver.rounds;
              iterations = r.Laplacian.Solver.iterations;
              phase_rounds = r.Laplacian.Solver.phase_rounds;
              x_fnv =
                Serve.Fingerprint.vec Wire.Fnv.offset r.Laplacian.Solver.x;
            }
        in
        done_ := summary :: !done_)
  in
  (w, Array.of_list (List.rev !done_))

(* The solver's weight preprocessing (solver.ml, preprocess_weights): the
   sparsify replay must see the graph the solver sparsifies. *)
let preprocess_weights eps g =
  Graph.map_weights
    (fun e -> eps *. Float.max 1. (Float.round (e.Graph.w /. eps)))
    g

(* The decomposition calls Sparsify.Spectral.sparsify makes: per binary
   weight class, decompose and recurse on the crossing edges. *)
let replay_decompositions rp g =
  let classes = Hashtbl.create 8 in
  Array.iteri
    (fun id e ->
      let c = int_of_float (Float.floor (Float.log2 e.Graph.w)) in
      Hashtbl.replace classes c
        (id :: Option.value (Hashtbl.find_opt classes c) ~default:[]))
    (Graph.edges g);
  let max_levels = (4 * Runtime.Cost.log2_ceil (max (Graph.m g) 2)) + 4 in
  let calls = ref 0 in
  Hashtbl.fold (fun c ids acc -> (c, List.rev ids) :: acc) classes []
  |> List.sort compare
  |> List.iter (fun (_, ids) ->
         let current = ref (Graph.sub_edges g ids) and level = ref 0 in
         while Graph.m !current > 0 && !level < max_levels do
           incr level;
           incr calls;
           let d =
             Span.record rp ~op:(-1) "expander.decompose" (fun () ->
                 Expander.Decomposition.decompose ~phi:0.05 ~gamma:0.25
                   !current)
           in
           current := Graph.sub_edges !current d.Expander.Decomposition.crossing
         done);
  !calls

(* The traced run: a traced window after the untraced one, then replays. *)
let traced ~seconds ~fleet ~fails ~untraced ~cold ~trace_file =
  let ops = Array.length cold in
  let tr = Span.create ~lane:1 and rp = Span.create ~lane:3 in
  (* The same ops split into prepare + solve_prepared, documented as
     bit-identical to solve. *)
  let tw, hot =
    window ~seconds ~fleet ~fails ~id0:ops (fun id inst ->
        Span.record tr ~op:id "perfbench.op" (fun () ->
            let prep =
              Span.record tr ~op:id "laplacian.prepare" (fun () ->
                  Laplacian.Solver.prepare inst.g)
            in
            Span.record tr ~op:id "laplacian.solve_prepared" (fun () ->
                Laplacian.Solver.solve_prepared prep inst.b)))
  in
  let tops = Array.length hot in
  Array.iteri
    (fun k h ->
      if h.x_fnv <> cold.(k mod fleet_size).x_fnv then
        Failures.add fails (ops + k)
          "prepare + solve_prepared differs from solve")
    hot;
  (* Replays off the op path: the sparsifier and its decompositions on
     each fleet graph, once. *)
  let kept = ref 0. and levels = ref 0 and calls = ref 0 in
  Array.iter
    (fun inst ->
      let g' = preprocess_weights 1e-6 inst.g in
      let sp =
        Span.record rp ~op:(-1) "sparsify.spectral" (fun () ->
            Sparsify.Spectral.sparsify g')
      in
      kept :=
        !kept
        +. float_of_int (Graph.m sp.Sparsify.Spectral.sparsifier)
           /. float_of_int (Graph.m inst.g);
      levels := !levels + sp.Sparsify.Spectral.levels;
      calls :=
        !calls
        + Span.record rp ~op:(-1) "perfbench.decompose_replay" (fun () ->
              replay_decompositions rp g'))
    fleet;
  let s = Span.summary tr and r = Span.summary rp in
  let fleet_f = float_of_int fleet_size in
  let per_op f =
    Array.fold_left (fun a h -> a +. float_of_int (f h)) 0. hot
    /. float_of_int tops
  in
  let phase name h =
    Option.value (List.assoc_opt name h.phase_rounds) ~default:0
  in
  let mean_untraced = mean untraced.latencies
  and mean_traced = mean tw.latencies in
  let overhead = pct (mean_traced -. mean_untraced) mean_untraced in
  let op_total = (Span.find s "perfbench.op").Span.total in
  let covered =
    (Span.find s "laplacian.prepare").Span.total
    +. (Span.find s "laplacian.solve_prepared").Span.total
  in
  let decompose_ms =
    (Span.find r "expander.decompose").Span.total *. 1000. /. fleet_f
  in
  let sparsify_ms = Span.mean_ms r "sparsify.spectral" in
  let metrics =
    [
      metric "laplacian.prepare_ms" "ms" (Span.mean_ms s "laplacian.prepare");
      metric "laplacian.prepare_alloc_mwords" "Mwords"
        (Span.mean_self_alloc_mwords s "laplacian.prepare");
      metric "laplacian.solve_prepared_ms" "ms"
        (Span.mean_ms s "laplacian.solve_prepared");
      metric "laplacian.solve_prepared_alloc_mwords" "Mwords"
        (Span.mean_self_alloc_mwords s "laplacian.solve_prepared");
      metric "sparsify.spectral_ms" "ms" sparsify_ms;
      metric "sparsify.spectral_alloc_mwords" "Mwords"
        (Span.mean_self_alloc_mwords r "sparsify.spectral");
      metric "expander.decompose_ms" "ms" decompose_ms;
      metric "sparsify.kept_ratio" "ratio" (!kept /. fleet_f);
      metric "sparsify.levels" "count" (float_of_int !levels /. fleet_f);
      metric "linalg.chebyshev_iters" "count" (per_op (fun h -> h.iterations));
      metric "rounds.sparsify" "rounds" (per_op (phase "sparsify"));
      metric "rounds.kappa-estimate" "rounds" (per_op (phase "kappa-estimate"));
      metric "rounds.chebyshev" "rounds" (per_op (phase "chebyshev"));
      metric "trace.overhead_pct" "%" overhead;
      metric "trace.coverage_pct" "%" (pct covered op_total);
    ]
  in
  Span.export [ tr; rp ] trace_file
    ~lanes:[ (1, "perfbench: traced window"); (3, "perfbench: replays") ];
  let lines =
    [
      Printf.sprintf
        "traced window: %d ops; prepare + solve_prepared cover %.2f%% of the \
         op spans"
        tops (pct covered op_total);
      Printf.sprintf
        "tracing overhead: mean op %.3f ms traced vs %.3f ms untraced (%+.2f%%)"
        (mean_traced *. 1000.) (mean_untraced *. 1000.) overhead;
      Printf.sprintf
        "replays (off the op path, once per fleet graph): sparsify.spectral \
         %.2f ms = %.1f%% of prepare; %d decompositions per graph, %.2f ms = \
         %.1f%% of sparsify"
        sparsify_ms
        (pct sparsify_ms (Span.mean_ms s "laplacian.prepare"))
        (!calls / fleet_size) decompose_ms (pct decompose_ms sparsify_ms);
      "per-span and per-layer self time (per traced op):";
    ]
    @ Span.table tr ~ops:tops
    @ [ "replays (per fleet graph):" ]
    @ Span.table rp ~ops:fleet_size
    @ [ "trace written to " ^ trace_file ]
  in
  (tops, metrics, lines)

let run ~seed ~seconds ~trace ~trace_file =
  let setup, fleet = repeat_setup 5 (fun () -> build_fleet seed) in
  let fails = Failures.create () in
  let w, cold =
    window ~seconds ~fleet ~fails ~id0:0 (fun _ inst ->
        Laplacian.Solver.solve inst.g inst.b)
  in
  let ops = Array.length cold in
  let rounds = Array.fold_left (fun a c -> a + c.rounds) 0 cold in
  let head =
    Printf.sprintf
      "solve-cold: %d graphs weighted_gnp(n=%d..%d, p=%.1f, u=%d), \
       Laplacian.Solver.solve per op; %d ops, %.2f s on the clock (%d cycles)"
      fleet_size n_min n_max p u ops w.wall (ops / fleet_size)
  in
  if not trace then
    {
      attempted = ops;
      failed = Failures.count fails;
      metrics =
        end_to_end ~setup ~window:w ~peak_rss:(peak_rss_mb 0)
          ~rounds_per_op:(float_of_int rounds /. float_of_int ops)
          ~attempted:ops ~failed:(Failures.count fails);
      report = head :: Failures.sample fails;
    }
  else
    let tops, metrics, lines =
      traced ~seconds ~fleet ~fails ~untraced:w ~cold ~trace_file
    in
    {
      attempted = ops + tops;
      failed = Failures.count fails;
      metrics;
      report = (head :: lines) @ Failures.sample fails;
    }
