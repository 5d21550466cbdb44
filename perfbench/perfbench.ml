(* The benchmark executable: one workload, one seed, one run. run.py builds
   it and calls

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --serve PATH/cc_serve.exe --out DIR

   It prints a report, then as its last line one JSON object: with
   --trace 0 the end-to-end metrics of an untraced window of S seconds,
   with --trace 1 the per-layer metrics of a traced window of S/2 seconds
   (plus the tracing overhead, measured against an untraced window of S/2
   seconds in the same process). *)

module Json = Metrics.Json

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload serve-hot|solve-cold|flow-clique --seed \
     N --seconds S --trace 0|1 --serve CC_SERVE_EXE --out DIR";
  exit 2

type args = {
  mutable workload : string;
  mutable seed : int option;
  mutable seconds : float;
  mutable trace : bool;
  mutable serve : string;
  mutable out : string;
}

let parse () =
  let a =
    { workload = ""; seed = None; seconds = 10.; trace = false; serve = "";
      out = "." }
  in
  let num conv v = match conv v with Some x -> x | None -> usage () in
  let rec go = function
    | [] -> a
    | "--workload" :: v :: r -> a.workload <- v; go r
    | "--seed" :: v :: r -> a.seed <- Some (num int_of_string_opt v); go r
    | "--seconds" :: v :: r -> a.seconds <- num float_of_string_opt v; go r
    | "--trace" :: ("0" | "1" as v) :: r -> a.trace <- v = "1"; go r
    | "--serve" :: v :: r -> a.serve <- v; go r
    | "--out" :: v :: r -> a.out <- v; go r
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

(* Every CC_* knob changes what the libraries do (kernel, domains, model,
   sanitizer, faults, shards, daemon settings); the benchmark measures the
   defaults only, so it refuses to run with any of them set. *)
let refuse_cc_env () =
  let set =
    List.filter
      (fun kv -> String.length kv >= 3 && String.sub kv 0 3 = "CC_")
      (Array.to_list (Unix.environment ()))
  in
  if set <> [] then begin
    prerr_endline
      ("perfbench: unset the CC_* variables first (run.py does): "
      ^ String.concat " " set);
    exit 2
  end

let config_line () =
  Printf.sprintf
    "config: kernel=%s domains=%d model=%s sanitizer=%s shards=%d faults=%s; \
     serve-hot daemon: cc_serve %s"
    (match Clique.Sim.default_kernel () with
    | Clique.Sim.Arena -> "arena"
    | Clique.Sim.Legacy -> "legacy"
    | Clique.Sim.Shard -> "shard")
    (Runtime.Pool.default_domains ())
    (Runtime.Model.name (Runtime.Model.default ()))
    (if Runtime.Sanitize.enabled_default () then "on" else "off")
    (Runtime.Shard.default_shards ())
    (match Fault.Schedule.of_env () with
    | None -> "none"
    | Some s -> Fault.Schedule.to_string s)
    (String.concat " " Serve_hot.daemon_args)

let () =
  let a = parse () in
  refuse_cc_env ();
  let seed = match a.seed with Some s -> s | None -> usage () in
  let trace_file =
    Printf.sprintf "%s/trace-%s-%d.json" a.out a.workload seed
  in
  let run =
    match a.workload with
    | "serve-hot" ->
      if a.serve = "" then usage ();
      Serve_hot.run ~exe:a.serve ~dir:a.out
    | "solve-cold" -> Solve_cold.run
    | "flow-clique" -> Flow_clique.run
    | _ -> usage ()
  in
  let o =
    run ~seed
      ~seconds:(if a.trace then a.seconds /. 2. else a.seconds)
      ~trace:a.trace ~trace_file
  in
  print_endline (config_line ());
  List.iter print_endline o.Measure.report;
  List.iter
    (fun m ->
      Printf.printf "  %-40s %14.6g %s\n" m.Measure.name m.Measure.value
        m.Measure.unit_)
    o.Measure.metrics;
  Printf.printf "  %-40s %14.6g %s\n" "fail_rate"
    (float_of_int o.Measure.failed /. float_of_int o.Measure.attempted)
    "ratio";
  print_endline
    (Json.to_string ~minify:true
       (Json.Assoc
          [
            ("correct", Json.Bool (o.Measure.failed = 0));
            ("attempted", Json.Int o.Measure.attempted);
            ("failed", Json.Int o.Measure.failed);
            ( "metrics",
              Json.Assoc
                (List.map
                   (fun m ->
                     ( m.Measure.name,
                       Json.Assoc
                         [
                           ("value", Json.Float m.Measure.value);
                           ("unit", Json.String m.Measure.unit_);
                         ] ))
                   o.Measure.metrics) );
          ]))
