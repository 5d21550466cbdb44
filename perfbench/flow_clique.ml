(* flow-clique: one op runs one fleet seed through the four Theorem 1.2–1.4
   pipelines and the clique MST. It is the only workload where real arena
   message exchange (Euler's Cole–Vishkin chains, Borůvka's broadcasts)
   does the work; the IPMs add electrical CG, rounding and repair.
   Bundling makes every op the same kind, so p50 and p90 never sit on a
   boundary between kinds. *)

open Measure

(* Instances differ a lot in IPM iterations, so rounds_per_op and the
   latency mix need a fleet this large to vary little between seeds. *)
let fleet_size = 24

type instance = {
  net : Digraph.t;  (* layered 6×8, capacities up to 16 *)
  mcf : Digraph.t;  (* random_mcf 40/150/10 *)
  sigma : int array;
  euler : Graph.t;  (* cycle_union 512×8 *)
  mst : Graph.t;  (* weighted_gnp 600, p 0.05, u 64 *)
}

let build_fleet seed =
  Array.init fleet_size (fun i ->
      let s = Int64.of_int ((seed * fleet_size) + i) in
      let mcf, sigma = Gen.random_mcf ~seed:s 40 150 10 in
      {
        net = Gen.layered_network ~seed:s 6 8 16;
        mcf;
        sigma;
        euler = Gen.cycle_union ~seed:s 512 8;
        mst = Gen.weighted_gnp ~seed:s 600 0.05 64;
      })

let sink net = Digraph.n net - 1

type result = {
  maxflow : Maxflow_ipm.report;
  mincost : Mcf_ipm.report option;
  orient : Euler.Orientation.result;
  tree : Clique.Boruvka.result;
}

(* [span.f name g] wraps each pipeline call; the untraced window passes a
   plain application. *)
type span = { f : 'a. string -> (unit -> 'a) -> 'a }

let plain = { f = (fun _ g -> g ()) }

let op span inst =
  let maxflow =
    span.f "flow.maxflow" (fun () ->
        Maxflow_ipm.max_flow inst.net ~s:0 ~t:(sink inst.net))
  in
  let mincost =
    span.f "flow.mincost" (fun () -> Mcf_ipm.solve inst.mcf ~sigma:inst.sigma)
  in
  let orient =
    span.f "euler.orient" (fun () -> Euler.Orientation.orient inst.euler)
  in
  let tree =
    span.f "clique.mst" (fun () ->
        Clique.Boruvka.minimum_spanning_tree inst.mst)
  in
  { maxflow; mincost; orient; tree }

(* Independent oracles, once per fleet instance: Dinic's max-flow value
   and the successive-shortest-paths min cost. *)
type oracle = { flow_value : int; min_cost : float option }

let oracle inst =
  {
    flow_value = Dinic.max_flow_value inst.net ~s:0 ~t:(sink inst.net);
    min_cost =
      Option.map
        (fun r -> r.Mcf_ssp.cost)
        (Mcf_ssp.solve inst.mcf ~sigma:inst.sigma);
  }

let check fails id inst o r =
  let fail why = Failures.add fails id why in
  let verdict name = function
    | Fault.Check.Pass -> ()
    | f -> fail (name ^ ": " ^ Fault.Check.to_string f)
  in
  verdict "maxflow"
    (Fault.Check.max_flow inst.net ~s:0 ~t:(sink inst.net)
       ~value:(float_of_int r.maxflow.Maxflow_ipm.value)
       r.maxflow.Maxflow_ipm.f);
  if r.maxflow.Maxflow_ipm.value <> o.flow_value then
    fail
      (Printf.sprintf "maxflow value %d, Dinic %d" r.maxflow.Maxflow_ipm.value
         o.flow_value);
  (match (r.mincost, o.min_cost) with
  | Some m, Some cost_bound ->
    verdict "mincost"
      (Fault.Check.mcf inst.mcf ~sigma:inst.sigma ~cost_bound m.Mcf_ipm.f)
  | _ -> fail "mincost: no flow (the instance is feasible by construction)");
  verdict "euler"
    (Fault.Check.eulerian inst.euler r.orient.Euler.Orientation.orientation);
  verdict "mst"
    (Fault.Check.mst inst.mst ~weight:r.tree.Clique.Boruvka.weight
       r.tree.Clique.Boruvka.edges)

(* What the metrics need of one op — named counts; the result is dropped. *)
let summarize r =
  let m f = match r.mincost with Some m -> f m | None -> 0 in
  [
    ("rounds.maxflow", r.maxflow.Maxflow_ipm.rounds);
    ("rounds.mincost", m (fun m -> m.Mcf_ipm.rounds));
    ("rounds.euler", r.orient.Euler.Orientation.rounds);
    ("rounds.mst", r.tree.Clique.Boruvka.rounds);
    ( "flow.ipm_iterations",
      r.maxflow.Maxflow_ipm.ipm_iterations
      + m (fun m -> m.Mcf_ipm.ipm_iterations) );
    ( "flow.laplacian_solves",
      r.maxflow.Maxflow_ipm.laplacian_solves
      + m (fun m -> m.Mcf_ipm.laplacian_solves) );
    ( "flow.repair_augmentations",
      r.maxflow.Maxflow_ipm.repair_augmentations
      + m (fun m -> m.Mcf_ipm.repair_augmentations) );
    ("euler.iterations", r.orient.Euler.Orientation.iterations);
    ("euler.coloring_rounds", r.orient.Euler.Orientation.coloring_rounds);
  ]

let rounds_names =
  [ "rounds.maxflow"; "rounds.mincost"; "rounds.euler"; "rounds.mst" ]

(* Op [id] on its fleet instance: [run_op] is on the clock, the
   certificate and oracle checks are not. An exception fails the op, not
   the run; its counts read 0. *)
let window ~seconds ~fleet ~oracles ~fails ~id0 run_op =
  let done_ = ref [] in
  let w =
    run_window ~seconds ~cycle:fleet_size ~cpu:(Per_op self_cpu_s)
      (fun k timed ->
        let id = id0 + k and i = k mod fleet_size in
        let counts =
          match timed (fun () -> try Ok (run_op id fleet.(i)) with e -> Error e)
          with
          | Error e ->
            Failures.add fails id ("exception " ^ Printexc.to_string e);
            []
          | Ok r ->
            check fails id fleet.(i) oracles.(i) r;
            summarize r
        in
        done_ := counts :: !done_)
  in
  (w, Array.of_list (List.rev !done_))

let per_op counts name =
  Array.fold_left
    (fun a c ->
      a +. float_of_int (Option.value (List.assoc_opt name c) ~default:0))
    0. counts
  /. float_of_int (Array.length counts)

(* The traced run: a traced window after the untraced one, then replays. *)
let traced ~seconds ~fleet ~oracles ~fails ~untraced ~ops ~trace_file =
  let tr = Span.create ~lane:1 and rp = Span.create ~lane:3 in
  let tw, counts =
    window ~seconds ~fleet ~oracles ~fails ~id0:ops (fun id inst ->
        Span.record tr ~op:id "perfbench.op" (fun () ->
            op { f = (fun name g -> Span.record tr ~op:id name g) } inst))
  in
  let tops = Array.length counts in
  (* Message volume of the MST, replayed as Sim_programs.boruvka on a
     clique the benchmark owns (Boruvka keeps its runtime private). *)
  let words =
    Array.fold_left
      (fun acc inst ->
        let rt = Clique.Kernel.clique (Graph.n inst.mst) in
        Span.record rp ~op:(-1) "clique.boruvka_replay" (fun () ->
            ignore
              (Clique.Kernel.Sim_programs.boruvka rt inst.mst
                : int list * float * int));
        acc + Clique.Kernel.words rt)
      0 fleet
  in
  let words_per_op = float_of_int words /. float_of_int fleet_size in
  let s = Span.summary tr in
  let mean_untraced = mean untraced.latencies
  and mean_traced = mean tw.latencies in
  let overhead = pct (mean_traced -. mean_untraced) mean_untraced in
  let pipelines =
    [ "flow.maxflow"; "flow.mincost"; "euler.orient"; "clique.mst" ]
  in
  let covered =
    List.fold_left (fun a n -> a +. (Span.find s n).Span.total) 0. pipelines
  in
  let coverage = pct covered (Span.find s "perfbench.op").Span.total in
  let timed name =
    [
      metric (name ^ "_ms") "ms" (Span.mean_ms s name);
      metric (name ^ "_alloc_mwords") "Mwords"
        (Span.mean_self_alloc_mwords s name);
    ]
  in
  let count name unit_ = metric name unit_ (per_op counts name) in
  let metrics =
    List.concat_map timed pipelines
    @ [
        count "flow.ipm_iterations" "count";
        count "flow.laplacian_solves" "count";
        count "flow.repair_augmentations" "count";
        count "euler.iterations" "count";
        count "euler.coloring_rounds" "rounds";
        metric "runtime.words_per_op" "words" words_per_op;
        metric "runtime.bytes_moved" "bytes" (8. *. words_per_op);
      ]
    @ List.map (fun n -> count n "rounds") rounds_names
    @ [
        metric "trace.overhead_pct" "%" overhead;
        metric "trace.coverage_pct" "%" coverage;
      ]
  in
  Span.export [ tr; rp ] trace_file
    ~lanes:[ (1, "perfbench: traced window"); (3, "perfbench: replays") ];
  let lines =
    [
      Printf.sprintf
        "traced window: %d ops; the four pipeline spans cover %.2f%% of the \
         op spans"
        tops coverage;
      Printf.sprintf
        "tracing overhead: mean op %.3f ms traced vs %.3f ms untraced (%+.2f%%)"
        (mean_traced *. 1000.) (mean_untraced *. 1000.) overhead;
      Printf.sprintf
        "MST message volume (replayed Sim_programs.boruvka): %.0f words = %.0f \
         bytes per op (computed, 8-byte words)"
        words_per_op (8. *. words_per_op);
      "per-span and per-layer self time (per traced op):";
    ]
    @ Span.table tr ~ops:tops
    @ [ "replays (per fleet instance):" ]
    @ Span.table rp ~ops:fleet_size
    @ [ "trace written to " ^ trace_file ]
  in
  (tops, metrics, lines)

let run ~seed ~seconds ~trace ~trace_file =
  let setup, fleet = repeat_setup 3 (fun () -> build_fleet seed) in
  let oracles = Array.map oracle fleet in
  let fails = Failures.create () in
  let w, counts =
    window ~seconds ~fleet ~oracles ~fails ~id0:0 (fun _ inst ->
        op plain inst)
  in
  let ops = Array.length counts in
  let rounds_per_op =
    List.fold_left (fun a n -> a +. per_op counts n) 0. rounds_names
  in
  let head =
    Printf.sprintf
      "flow-clique: %d bundles of maxflow(layered 6x8, cap 16) + \
       mincost(random_mcf 40/150/10) + euler(cycle_union 512x8) + \
       mst(weighted_gnp 600, p 0.05); %d ops, %.2f s on the clock (%d cycles)"
      fleet_size ops w.wall (ops / fleet_size)
  in
  if not trace then
    {
      attempted = ops;
      failed = Failures.count fails;
      metrics =
        end_to_end ~setup ~window:w ~peak_rss:(peak_rss_mb 0) ~rounds_per_op
          ~attempted:ops ~failed:(Failures.count fails);
      report = head :: Failures.sample fails;
    }
  else
    let tops, metrics, lines =
      traced ~seconds ~fleet ~oracles ~fails ~untraced:w ~ops ~trace_file
    in
    {
      attempted = ops + tops;
      failed = Failures.count fails;
      metrics;
      report = (head :: lines) @ Failures.sample fails;
    }
