(* serve-hot: the repeated-solve service path. The shipped cc_serve runs in
   its own process (one worker domain, verify policy) on a Unix socket and
   one closed-loop Serve.Client connection drives it. Every request names
   one of a small working set of graphs by generator spec and carries an
   explicit rhs, so after the warm-up every request is a cache hit: the
   daemon decodes (regenerating the graph), fingerprints, runs the
   zero-allocation Chebyshev solve on the cached prepared handle, checks
   the residual and encodes. Sparsify, expander and runtime do no work in
   the timed window. One connection never queues. *)

open Measure
module Json = Metrics.Json

let graphs = 8

let rhs_per_graph = 8

(* Op k sends request k mod cycle: graph (k mod graphs) with its
   ((k / graphs) mod rhs_per_graph)-th rhs. The daemon caches nothing per
   rhs, so repeating them across cycles is invisible to it; it is what
   makes rounds_per_op (which depends on the rhs through the Chebyshev
   iteration count) repeat exactly. *)
let cycle = graphs * rhs_per_graph

let n = 160

let p = 0.3

let u = 8

let graph_seed seed i = (seed * graphs) + i

let spec seed i =
  Json.Assoc
    [
      ("gen", Json.String "weighted_gnp");
      ("n", Json.Int n);
      ("p", Json.Float p);
      ("u", Json.Int u);
      ("seed", Json.Int (graph_seed seed i));
    ]

let graph seed i =
  Gen.weighted_gnp ~seed:(Int64.of_int (graph_seed seed i)) n p u

type request = { gi : int; b : Linalg.Vec.t; fields : (string * Json.t) list }

let requests seed =
  Array.init cycle (fun c ->
      let gi = c mod graphs in
      let b = rhs ~seed:(((seed * cycle) + c) lxor 0xb0b) n in
      {
        gi;
        b;
        fields =
          [
            ("kind", Json.String "solve");
            ("graph", spec seed gi);
            ( "b",
              Json.List (Array.to_list (Array.map (fun x -> Json.Float x) b))
            );
          ];
      })

let job ~id r = Json.Assoc (("id", Json.Int id) :: r.fields)

(* ------------------------------------------------------------ daemon *)

type daemon = {
  pid : int;
  sock : string;
  mutable client : Serve.Client.t;
  mutable reaped : bool;
}

(* Daemons still running, killed at exit if the benchmark dies first. *)
let live : daemon list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          if not d.reaped then begin
            (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
            try Sys.remove d.sock with Sys_error _ -> ()
          end)
        !live)

let daemon_args = [ "--jobs"; "1"; "--cache"; "32"; "--policy"; "verify" ]

let request d body =
  Serve.Client.request ~deadline:(now () +. 30.) d.client body

(* After a timeout or a dropped connection the stream is out of step (a
   late reply would answer the next request), so the next op starts on a
   fresh connection. A daemon that accepts none ends the run. *)
let reconnect d =
  (try Serve.Client.close d.client with _ -> ());
  d.client <- Serve.Client.connect ("unix:" ^ d.sock)

let control kind = Json.Assoc [ ("id", Json.Int 0); ("kind", Json.String kind) ]

let field path j =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

let spawns = ref 0

let spawn ~exe ~dir =
  incr spawns;
  let sock =
    Printf.sprintf "%s/serve-%d-%d.sock" dir (Unix.getpid ()) !spawns
  in
  let addr = "unix:" ^ sock in
  (* The daemon inherits our environment, which holds no CC_* variable
     (the main module refuses to run otherwise). *)
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "--addr" :: addr :: daemon_args))
      Unix.stdin Unix.stderr Unix.stderr
  in
  let deadline = now () +. 10. in
  let rec connect () =
    match Serve.Client.connect addr with
    | c -> c
    | exception Unix.Unix_error _
      when now () < deadline && fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0 ->
      Unix.sleepf 0.002;
      connect ()
  in
  let d = { pid; sock; client = connect (); reaped = false } in
  live := d :: !live;
  d

(* Send the shutdown job and wait for the daemon to exit. True iff it
   exited with status 0 and removed its socket file. *)
let shutdown d =
  (try ignore (request d (control "shutdown") : Json.t) with _ -> ());
  Serve.Client.close d.client;
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid);
      false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let clean = wait () in
  d.reaped <- true;
  clean && not (Sys.file_exists d.sock)

(* Set-up: spawn the daemon and warm every working-set graph — one cache
   miss (a full prepare) each. *)
let setup ~exe ~dir ~seed reqs =
  let d = spawn ~exe ~dir in
  for i = 0 to graphs - 1 do
    let reply = request d (job ~id:(cycle + i) reqs.(i)) in
    if field [ "metrics"; "cache" ] reply <> Some (Json.String "miss") then
      failwith
        (Printf.sprintf "serve-hot: warm-up of graph %d (seed %d) was not a \
                         cache miss: %s"
           i (graph_seed seed i) (Json.to_string ~minify:true reply))
  done;
  d

let cache_hits d =
  match field [ "result"; "cache"; "hits" ] (request d (control "stats")) with
  | Some (Json.Int h) -> h
  | _ -> failwith "serve-hot: stats reply without cache.hits"

let num path j =
  match field path j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> nan

(* The in-process answer each request must match: Solver.solve_prepared
   on a locally prepared handle, fingerprinted as the daemon does. *)
let expected seed reqs =
  let prepared =
    Array.init graphs (fun i -> Laplacian.Solver.prepare (graph seed i))
  in
  let reports =
    Array.map
      (fun r -> Laplacian.Solver.solve_prepared prepared.(r.gi) r.b)
      reqs
  in
  (prepared, reports)

let hex_of_vec x =
  Serve.Fingerprint.to_hex (Serve.Fingerprint.vec Wire.Fnv.offset x)

let check fails reports id body =
  let fail why = Failures.add fails id why in
  let want = reports.(id mod cycle) in
  if not (Serve.Client.ok body) then
    fail
      ("refused: "
      ^ Option.value (Serve.Client.error_message body) ~default:"(no message)")
  else begin
    if field [ "id" ] body <> Some (Json.Int id) then fail "reply id mismatch";
    if field [ "metrics"; "cache" ] body <> Some (Json.String "hit") then
      fail "not a cache hit";
    if
      field [ "result"; "x_fnv" ] body
      <> Some (Json.String (hex_of_vec want.Laplacian.Solver.x))
    then fail "x_fnv differs from the in-process solve_prepared";
    if
      field [ "metrics"; "rounds" ] body
      <> Some (Json.Int want.Laplacian.Solver.rounds)
    then fail "rounds differ from the in-process solve_prepared"
  end

(* What the metrics need of one reply; the reply itself is dropped. *)
type summary = {
  rounds : int;
  queue_ms : float;  (* the daemon's queue wait, from the reply *)
  exec_ms : float;  (* the daemon's Exec.run time, from the reply *)
  bytes : int;  (* request and reply frames, headers included *)
}

let failed = { rounds = 0; queue_ms = 0.; exec_ms = 0.; bytes = 0 }

(* Op ids continue across windows ([id0] is a multiple of the cycle), so
   op [id] sends request (id mod cycle). The request is built and the
   reply checked off the clock; the daemon's CPU is sampled over the whole
   loop, since it idles between requests. A timeout, a dropped connection
   or any other exception fails the op, not the run. *)
let window ~seconds ~id0 ~fails ~reports d reqs ~wrap =
  let done_ = ref [] in
  let w =
    run_window ~seconds ~cycle
      ~cpu:(Whole_loop (fun () -> proc_cpu_s d.pid))
      (fun k timed ->
        let id = id0 + k in
        let body = job ~id reqs.(id mod cycle) in
        let summary =
          match
            timed (fun () ->
                try Ok (wrap id (fun () -> request d body)) with e -> Error e)
          with
          | Error e ->
            Failures.add fails id ("exception " ^ Printexc.to_string e);
            reconnect d;
            failed
          | Ok reply ->
            check fails reports id reply;
            {
              rounds =
                (match field [ "metrics"; "rounds" ] reply with
                | Some (Json.Int r) -> r
                | _ -> 0);
              queue_ms = num [ "metrics"; "queue_wait_ms" ] reply;
              exec_ms = num [ "metrics"; "solve_ms" ] reply;
              bytes =
                (2 * Wire.Frame.header_bytes)
                + String.length (Json.to_string ~minify:true body)
                + String.length (Json.to_string ~minify:true reply);
            }
        in
        done_ := summary :: !done_)
  in
  (w, Array.of_list (List.rev !done_))

let mean_of f a = mean (Array.map f a)

(* In-process replays of the daemon's per-request work, through the entry
   points it calls: decode, Exec.run on a warmed cache, encode; then the
   parts of those calls one by one. *)
let replay ~seed ~reqs ~prepared ~ops rp parts =
  let cache = Serve.Cache.create ~cap:32 in
  let policy = Serve.Exec.Verify in
  let ok = function
    | Ok v -> v
    | Error e -> failwith ("serve-hot replay: " ^ e)
  in
  for i = 0 to graphs - 1 do
    let j = ok (Serve.Job.parse (job ~id:(cycle + i) reqs.(i))) in
    ignore (ok (Serve.Exec.run ~policy ~cache j) : Serve.Exec.outcome)
  done;
  for k = 0 to ops - 1 do
    let r = reqs.(k mod cycle) in
    let s = Json.to_string ~minify:true (job ~id:k r) in
    Span.record rp ~op:k "perfbench.replay" (fun () ->
        let j =
          ok
            (Span.record rp ~op:k "serve.decode" (fun () ->
                 Serve.Job.parse_string s))
        in
        let o =
          ok
            (Span.record rp ~op:k "serve.exec_replay" (fun () ->
                 Serve.Exec.run ~policy ~cache j))
        in
        ignore
          (Span.record rp ~op:k "serve.encode" (fun () ->
               Json.to_string ~minify:true
                 (Serve.Job.result_body ~id:k ~kind:"solve"
                    ~result:o.Serve.Exec.fields
                    ~metrics:
                      [
                        ("queue_wait_ms", Json.Float 0.);
                        ("solve_ms", Json.Float 0.);
                        ("rounds", Json.Int o.Serve.Exec.rounds);
                        ("cache", Json.String "hit");
                        ("attempts", Json.Int o.Serve.Exec.attempts);
                        ("recovered", Json.Bool o.Serve.Exec.recovered);
                        ("policy", Json.String "verify");
                      ]))
            : string));
    Span.record parts ~op:k "perfbench.parts" (fun () ->
        let g =
          Span.record parts ~op:k "graph.gen" (fun () -> graph seed r.gi)
        in
        ignore
          (Span.record parts ~op:k "serve.fingerprint" (fun () ->
               Serve.Fingerprint.float (Serve.Fingerprint.graph g) 1e-6)
            : int64);
        let rep =
          Span.record parts ~op:k "laplacian.solve_prepared" (fun () ->
              Laplacian.Solver.solve_prepared prepared.(r.gi) r.b)
        in
        ignore
          (Span.record parts ~op:k "fault.check" (fun () ->
               Fault.Check.solver_residual g ~b:(Linalg.Vec.center r.b)
                 rep.Laplacian.Solver.x)
            : Fault.Check.verdict))
  done

(* The traced window: the same requests, each in a client span holding
   the daemon's queue wait and execution. *)
let traced_window ~seconds ~fails ~reports ~reqs ~d ~ops =
  let tr = Span.create ~lane:1 in
  let tw, hot =
    window ~seconds ~id0:ops ~fails ~reports d reqs
      ~wrap:(fun id f ->
        Span.record tr ~op:id "serve.request" (fun () ->
            let reply = f () in
            (* The daemon's own spans, from its reply: only their lengths
               are measured, so they are drawn centred in the client span. *)
            let q = num [ "metrics"; "queue_wait_ms" ] reply /. 1000.
            and e = num [ "metrics"; "solve_ms" ] reply /. 1000. in
            let t0 = Span.current_start tr in
            let slack = Float.max 0. ((now () -. t0 -. q -. e) /. 2.) in
            Span.add tr ~op:id ~lane:2 "serve.queue_wait" (t0 +. slack)
              (t0 +. slack +. q);
            Span.add tr ~op:id ~lane:2 "serve.exec" (t0 +. slack +. q)
              (t0 +. slack +. q +. e);
            reply))
  in
  (tw, hot, tr)

let run ~seed ~seconds ~trace ~trace_file ~exe ~dir =
  let reqs = requests seed in
  let setup_times, d =
    repeat_setup 3
      ~discard:(fun d ->
        if not (shutdown d) then
          failwith "serve-hot: daemon did not shut down cleanly")
      (fun () -> setup ~exe ~dir ~seed reqs)
  in
  let prepared, reports = expected seed reqs in
  let fails = Failures.create () in
  let hits0 = cache_hits d in
  let w, cold =
    window ~seconds ~id0:0 ~fails ~reports d reqs
      ~wrap:(fun _ f -> f ())
  in
  let ops = Array.length cold in
  let hit_ratio = float_of_int (cache_hits d - hits0) /. float_of_int ops in
  let peak = peak_rss_mb d.pid in
  let hot =
    if trace then
      Some (traced_window ~seconds ~fails ~reports ~reqs ~d ~ops)
    else None
  in
  let clean = shutdown d in
  if not clean then
    Failures.add fails (-1) "daemon did not exit cleanly or left its socket";
  let head =
    Printf.sprintf
      "serve-hot: cc_serve %s, %d graphs weighted_gnp(n=%d, p=%.1f, \
       u=%d) x %d rhs; %d ops, %.2f s on the clock (%d cycles), cache hit \
       ratio %.3f; daemon exit %s"
      (String.concat " " daemon_args)
      graphs n p u rhs_per_graph ops w.wall (ops / cycle) hit_ratio
      (if clean then "clean, socket removed" else "NOT CLEAN")
  in
  match hot with
  | None ->
    let rounds = Array.fold_left (fun a c -> a + c.rounds) 0 cold in
    {
      attempted = ops;
      failed = Failures.count fails;
      metrics =
        end_to_end ~setup:setup_times ~window:w ~peak_rss:peak
          ~rounds_per_op:(float_of_int rounds /. float_of_int ops)
          ~attempted:ops ~failed:(Failures.count fails);
      report = head :: Failures.sample fails;
    }
  | Some (tw, hot, tr) ->
    let tops = Array.length hot in
    let replay_ops = 2 * cycle in
    let rp = Span.create ~lane:3 and parts = Span.create ~lane:4 in
    replay ~seed ~reqs ~prepared ~ops:replay_ops rp parts;
    let s = Span.summary tr
    and r = Span.summary rp
    and pa = Span.summary parts in
    let queue_ms = mean_of (fun h -> h.queue_ms) hot
    and exec_ms = mean_of (fun h -> h.exec_ms) hot in
    let overhead_ms = Span.mean_ms s "serve.request" -. queue_ms -. exec_ms in
    let replayed =
      Span.mean_ms r "serve.decode" +. Span.mean_ms r "serve.exec_replay"
      +. Span.mean_ms r "serve.encode"
    in
    let cpu_ms = w.cpu *. 1000. /. float_of_int ops in
    let per_cycle f =
      Array.fold_left (fun a rep -> a +. f rep) 0. reports /. float_of_int cycle
    in
    let phase name (rep : Laplacian.Solver.report) =
      float_of_int
        (Option.value (List.assoc_opt name rep.Laplacian.Solver.phase_rounds)
           ~default:0)
    in
    let mean_untraced = mean w.latencies and mean_traced = mean tw.latencies in
    let overhead = pct (mean_traced -. mean_untraced) mean_untraced in
    let metrics =
      [
        metric "serve.queue_wait_ms" "ms" queue_ms;
        metric "serve.exec_ms" "ms" exec_ms;
        metric "serve.overhead_ms" "ms" overhead_ms;
        metric "serve.decode_ms" "ms" (Span.mean_ms r "serve.decode");
        metric "serve.decode_alloc_mwords" "Mwords"
          (Span.mean_self_alloc_mwords r "serve.decode");
        metric "graph.gen_ms" "ms" (Span.mean_ms pa "graph.gen");
        metric "graph.gen_alloc_mwords" "Mwords"
          (Span.mean_self_alloc_mwords pa "graph.gen");
        metric "serve.encode_ms" "ms" (Span.mean_ms r "serve.encode");
        metric "serve.encode_alloc_mwords" "Mwords"
          (Span.mean_self_alloc_mwords r "serve.encode");
        metric "serve.fingerprint_ms" "ms"
          (Span.mean_ms pa "serve.fingerprint");
        metric "laplacian.solve_prepared_ms" "ms"
          (Span.mean_ms pa "laplacian.solve_prepared");
        metric "laplacian.solve_prepared_alloc_mwords" "Mwords"
          (Span.mean_self_alloc_mwords pa "laplacian.solve_prepared");
        metric "fault.check_ms" "ms" (Span.mean_ms pa "fault.check");
        metric "linalg.chebyshev_iters" "count"
          (per_cycle (fun rep -> float_of_int rep.Laplacian.Solver.iterations));
        metric "serve.cpu_unaccounted_ms" "ms" (cpu_ms -. replayed);
        metric "serve.cache_hit_ratio" "ratio" hit_ratio;
        metric "wire.bytes_per_op" "bytes"
          (mean_of (fun h -> float_of_int h.bytes) hot);
        metric "rounds.sparsify" "rounds" (per_cycle (phase "sparsify"));
        metric "rounds.kappa-estimate" "rounds"
          (per_cycle (phase "kappa-estimate"));
        metric "rounds.chebyshev" "rounds" (per_cycle (phase "chebyshev"));
        metric "trace.overhead_pct" "%" overhead;
        metric "trace.coverage_pct" "%" (pct replayed cpu_ms);
      ]
    in
    Span.export [ tr; rp; parts ] trace_file
      ~lanes:
        [
          (1, "perfbench: client spans (traced window)");
          (2, "cc_serve: queue wait and exec (from reply metrics)");
          (3, "perfbench: in-process replay of decode, exec, encode");
          (4, "perfbench: replayed parts of decode and exec");
        ];
    let lines =
      [
        Printf.sprintf
          "traced window: %d ops; client span %.3f ms = queue %.3f + exec \
           %.3f + overhead %.3f (decode, encode, wire, client)"
          tops (Span.mean_ms s "serve.request") queue_ms exec_ms overhead_ms;
        Printf.sprintf
          "tracing overhead: mean op %.3f ms traced vs %.3f ms untraced \
           (%+.2f%%)"
          (mean_traced *. 1000.) (mean_untraced *. 1000.) overhead;
        Printf.sprintf
          "daemon CPU %.3f ms/op; replayed decode + exec + encode %.3f ms \
           (%.1f%%); unaccounted %.3f ms"
          cpu_ms replayed (pct replayed cpu_ms) (cpu_ms -. replayed);
        "client spans (per traced op):";
      ]
      @ Span.table tr ~ops:tops
      @ [
          Printf.sprintf "in-process replay (per replayed op, %d ops):"
            replay_ops;
        ]
      @ Span.table rp ~ops:replay_ops
      @ [
          "replayed parts (graph.gen is part of decode; fingerprint, \
           solve_prepared and check are part of exec):";
        ]
      @ Span.table parts ~ops:replay_ops
      @ [ "trace written to " ^ trace_file ]
    in
    {
      attempted = ops + tops;
      failed = Failures.count fails;
      metrics;
      report = (head :: lines) @ Failures.sample fails;
    }
