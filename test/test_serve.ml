(* Protocol and scheduling tests for the cc_serve daemon, run against a
   real daemon on a Unix-domain socket in a fresh temp path per test.
   Standalone executable: the suite spawns domains (workers + listener)
   per daemon and several daemons per run. *)

(* cc_lint: allow L9 *)

module Json = Metrics.Json
module Link = Wire.Link

let sock_counter = ref 0

let fresh_addr () =
  incr sock_counter;
  Printf.sprintf "unix:/tmp/cc-serve-test-%d-%d.sock" (Unix.getpid ())
    !sock_counter

let with_daemon ?(addr = fresh_addr ()) ?(jobs = 2) ?(cache = 8)
    ?(policy = Serve.Exec.Off) ?(max_bytes = 8 * 1024 * 1024) f =
  let config =
    {
      Serve.Daemon.addr;
      jobs;
      cache_cap = cache;
      policy;
      max_bytes;
    }
  in
  let t = Serve.Daemon.start config in
  let finish () =
    Serve.Daemon.stop t;
    Serve.Daemon.wait t
  in
  match f (Serve.Daemon.addr t) with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let deadline () = Unix.gettimeofday () +. 30.

let request addr body =
  let c = Serve.Client.connect addr in
  let r = Serve.Client.request_string ~deadline:(deadline ()) c body in
  Serve.Client.close c;
  r

let get path j =
  let rec go j = function
    | [] -> Some j
    | k :: rest -> ( match Json.member k j with
      | Some v -> go v rest
      | None -> None)
  in
  go j path

let get_string path j =
  match get path j with Some (Json.String s) -> s | _ -> ""

let get_int path j =
  match get path j with
  | Some v -> ( match Json.to_int_opt v with Some i -> i | None -> -1)
  | None -> -1

let get_float path j =
  match get path j with
  | Some v -> ( match Json.to_float_opt v with Some f -> f | None -> nan)
  | None -> nan

let get_bool path j = match get path j with Some (Json.Bool b) -> b | _ -> false

let check_ok name j = Alcotest.(check bool) (name ^ ": ok") true (Serve.Client.ok j)

let check_refused name j =
  Alcotest.(check bool) (name ^ ": refused") false (Serve.Client.ok j);
  Alcotest.(check bool)
    (name ^ ": has error message") true
    (Serve.Client.error_message j <> None)

let solve_req ?(extra = "") ?(id = 1) ?(n = 24) ?(seed = 7) () =
  Printf.sprintf
    {|{"id":%d,"kind":"solve","graph":{"gen":"connected_gnp","n":%d,"p":0.25,"seed":%d}%s}|}
    id n seed extra

let mst_req ?(extra = "") ?(id = 1) () =
  Printf.sprintf
    {|{"id":%d,"kind":"mst","graph":{"gen":"weighted_gnp","n":20,"p":0.35,"u":40,"seed":5}%s}|}
    id extra

(* ------------------------------------------------------------ protocol *)

let test_malformed_json_keeps_connection () =
  with_daemon (fun addr ->
      (* drive the link directly: a frame whose payload is not JSON *)
      let link = Link.dial ~peer:"test" (Link.address addr) in
      Link.send link
        {
          Wire.Frame.kind = Serve.Job.frame_job;
          src = 0;
          dst = 0;
          seq = 9;
          epoch = 0;
          payload = Bytes.of_string "this is not json";
        };
      let reply = Link.recv ~deadline:(deadline ()) link in
      Alcotest.(check int) "error frame kind" Serve.Job.frame_error
        reply.Wire.Frame.kind;
      let body =
        match Json.of_string (Bytes.to_string reply.Wire.Frame.payload) with
        | Ok j -> j
        | Error e -> Alcotest.fail e
      in
      check_refused "malformed json" body;
      (* the stream is still synchronized: a well-formed request works *)
      Link.send link
        (Serve.Job.frame ~kind:Serve.Job.frame_job ~id:10
           (Json.Assoc [ ("id", Json.Int 10); ("kind", Json.String "stats") ]));
      let reply2 = Link.recv ~deadline:(deadline ()) link in
      Alcotest.(check int) "result frame kind" Serve.Job.frame_result
        reply2.Wire.Frame.kind;
      Link.close link)

let test_unknown_kind_refused () =
  with_daemon (fun addr ->
      check_refused "unknown kind" (request addr {|{"id":3,"kind":"florp"}|}))

let test_bad_graph_refused () =
  with_daemon (fun addr ->
      check_refused "unknown generator"
        (request addr
           {|{"kind":"solve","graph":{"gen":"petersen","n":10,"p":0.5}}|});
      check_refused "missing graph" (request addr {|{"kind":"solve"}|});
      check_refused "rhs length"
        (request addr
           {|{"kind":"solve","graph":{"gen":"grid","rows":2,"cols":2},"b":[1,2,3]}|}))

let test_oversized_frame_refused_connection_kept () =
  with_daemon ~max_bytes:256 (fun addr ->
      let c = Serve.Client.connect addr in
      let pad = String.make 400 'x' in
      let big =
        Serve.Client.request_string ~deadline:(deadline ()) c
          (Printf.sprintf {|{"id":4,"kind":"stats","pad":"%s"}|} pad)
      in
      check_refused "oversized" big;
      Alcotest.(check bool)
        "names the limit" true
        (match Serve.Client.error_message big with
        | Some m ->
          let has_sub s sub =
            let n = String.length s and k = String.length sub in
            let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
            go 0
          in
          has_sub m "exceeds"
        | None -> false);
      (* same connection still serves normal requests *)
      let small =
        Serve.Client.request_string ~deadline:(deadline ()) c
          {|{"id":5,"kind":"stats"}|}
      in
      check_ok "small after oversized" small;
      Serve.Client.close c)

let test_corrupt_stream_closed () =
  with_daemon (fun addr ->
      let link = Link.dial ~peer:"test" (Link.address addr) in
      (* 40 bytes of garbage: the header parse fails and the daemon must
         reply with an error and hang up (stream desynchronized). *)
      let garbage = Bytes.make 40 'Z' in
      let written =
        Unix.write (Link.fd link) garbage 0 (Bytes.length garbage) (* cc_lint: allow L9 *)
      in
      Alcotest.(check int) "garbage written" 40 written;
      let reply = Link.recv ~deadline:(deadline ()) link in
      Alcotest.(check int) "error frame" Serve.Job.frame_error
        reply.Wire.Frame.kind;
      Alcotest.(check bool)
        "connection closed" true
        (match Link.recv ~deadline:(deadline ()) link with
        | _ -> false
        | exception Link.Closed _ -> true);
      Link.close link)

(* The daemon takes Wire.Link's address grammar, tcp:HOST:PORT included
   (the form cc_worker documents), and reports the port it bound. *)
let test_tcp_addr () =
  with_daemon ~addr:"tcp:127.0.0.1:0" (fun addr ->
      Alcotest.(check bool) "bound port reported" true
        (match Wire.Link.address addr with
        | Wire.Link.Tcp ("127.0.0.1", port) -> port > 0
        | _ -> false);
      let r = request addr (solve_req ~id:60 ()) in
      check_ok "solve over tcp" r;
      Alcotest.(check bool) "answer carried" true
        (get_string [ "result"; "x_fnv" ] r <> ""))

(* ---------------------------------------------------------- scheduling *)

let test_queue_timeout () =
  (* One worker, three slow guard jobs: the 1 ms-deadline job lands
     behind them in the FIFO queue, and the guards cannot all drain
     within the 20 ms head start, so by dequeue time it is long
     expired. (One guard is not enough — a single n=80 preparation
     takes ~40 ms and occasionally finished before the timed job was
     enqueued.) *)
  with_daemon ~jobs:1 (fun addr ->
      let fast = Serve.Client.connect addr in
      let guards =
        List.map
          (fun id ->
            let c = Serve.Client.connect addr in
            let result = ref None in
            let d =
              Domain.spawn (fun () ->
                  result :=
                    Some
                      (Serve.Client.request_string ~deadline:(deadline ()) c
                         (solve_req ~id ~n:80 ~extra:{|,"nocache":true|} ())))
            in
            (c, result, d))
          [ 20; 22; 23 ]
      in
      Unix.sleepf 0.02;  (* let the first guard reach the worker *)
      let timed =
        Serve.Client.request_string ~deadline:(deadline ()) fast
          (mst_req ~id:21 ~extra:{|,"timeout_ms":1|} ())
      in
      List.iter (fun (_, _, d) -> Domain.join d) guards;
      check_refused "timed out" timed;
      Alcotest.(check bool)
        "mentions timeout" true
        (match Serve.Client.error_message timed with
        | Some m ->
          let has_sub s sub =
            let n = String.length s and k = String.length sub in
            let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
            go 0
          in
          has_sub m "timed out"
        | None -> false);
      List.iter
        (fun (c, result, _) ->
          (match !result with
          | Some r -> check_ok "guard job still completed" r
          | None -> Alcotest.fail "guard job never returned");
          Serve.Client.close c)
        guards;
      Serve.Client.close fast)

let test_cache_hit_identical_output () =
  with_daemon (fun addr ->
      let req =
        solve_req ~id:30 ~extra:{|,"return_x":true,"eps":1e-7|} ()
      in
      let r1 = request addr req in
      let r2 = request addr req in
      check_ok "first" r1;
      check_ok "second" r2;
      Alcotest.(check string)
        "cache miss then hit" "miss"
        (get_string [ "metrics"; "cache" ] r1);
      Alcotest.(check string)
        "hit" "hit"
        (get_string [ "metrics"; "cache" ] r2);
      Alcotest.(check string)
        "same x fingerprint"
        (get_string [ "result"; "x_fnv" ] r1)
        (get_string [ "result"; "x_fnv" ] r2);
      (* the full vectors, not just the hashes *)
      Alcotest.(check bool)
        "x lists identical" true
        (match (get [ "result"; "x" ] r1, get [ "result"; "x" ] r2) with
        | Some a, Some b -> Json.equal a b
        | _ -> false);
      Alcotest.(check int)
        "identical rounds ledger"
        (get_int [ "result"; "rounds" ] r1)
        (get_int [ "result"; "rounds" ] r2))

let test_concurrent_clients () =
  with_daemon ~jobs:3 (fun addr ->
      let worker k () =
        let c = Serve.Client.connect addr in
        let rs =
          List.init 3 (fun i ->
              Serve.Client.request_string ~deadline:(deadline ()) c
                (solve_req ~id:((k * 10) + i) ()))
        in
        Serve.Client.close c;
        rs
      in
      let domains = List.init 4 (fun k -> Domain.spawn (worker k)) in
      let replies = List.concat_map Domain.join domains in
      Alcotest.(check int) "all replied" 12 (List.length replies);
      List.iter (check_ok "concurrent solve") replies;
      let fnvs =
        List.sort_uniq compare
          (List.map (fun r -> get_string [ "result"; "x_fnv" ] r) replies)
      in
      Alcotest.(check int) "one consistent answer" 1 (List.length fnvs))

(* ------------------------------------------------- certification policy *)

let truthful_weight addr =
  let r = request addr (mst_req ~id:40 ()) in
  check_ok "truthful mst" r;
  get_float [ "result"; "weight" ] r

let inject_req () = mst_req ~id:41 ~extra:{|,"inject":true,"nocache":true|} ()

let test_policy_off_lets_corruption_escape () =
  with_daemon ~policy:Serve.Exec.Off (fun addr ->
      let truth = truthful_weight addr in
      let r = request addr (inject_req ()) in
      check_ok "uncertified reply" r;
      Alcotest.(check (float 1e-9))
        "corrupt weight escaped" (truth +. 1.)
        (get_float [ "result"; "weight" ] r))

let test_policy_verify_refuses () =
  with_daemon ~policy:Serve.Exec.Verify (fun addr ->
      let r = request addr (inject_req ()) in
      check_refused "verify refuses corruption" r;
      (* and certifies honest answers *)
      check_ok "honest job passes" (request addr (mst_req ~id:42 ()));
      (* the seeded solve rhs is NOT centered: the validator must measure
         the residual against the centered b the solver actually answers,
         or an honest solve is refused *)
      check_ok "honest solve passes" (request addr (solve_req ~id:43 ())))

let test_policy_recover_certifies () =
  with_daemon ~policy:Serve.Exec.Recover (fun addr ->
      let truth = truthful_weight addr in
      let r = request addr (inject_req ()) in
      check_ok "recovered reply" r;
      Alcotest.(check (float 1e-9))
        "certified weight" truth
        (get_float [ "result"; "weight" ] r);
      Alcotest.(check int) "two attempts" 2 (get_int [ "metrics"; "attempts" ] r);
      Alcotest.(check bool)
        "marked recovered" true
        (get_bool [ "metrics"; "recovered" ] r))

(* ----------------------------------------------------- stats & shutdown *)

let test_stats_and_shutdown () =
  let config =
    {
      Serve.Daemon.addr = fresh_addr ();
      jobs = 2;
      cache_cap = 8;
      policy = Serve.Exec.Off;
      max_bytes = 1024 * 1024;
    }
  in
  let t = Serve.Daemon.start config in
  let addr = Serve.Daemon.addr t in
  check_ok "job before stats" (request addr (mst_req ~id:50 ()));
  ignore (request addr (mst_req ~id:51 ()));
  let s = request addr {|{"id":52,"kind":"stats"}|} in
  check_ok "stats" s;
  Alcotest.(check bool)
    "received counted" true
    (get_int [ "result"; "jobs_received" ] s >= 2);
  Alcotest.(check int) "workers" 2 (get_int [ "result"; "workers" ] s);
  Alcotest.(check string) "policy" "none" (get_string [ "result"; "policy" ] s);
  Alcotest.(check bool)
    "cache hits counted" true
    (get_int [ "result"; "cache"; "hits" ] s >= 1);
  let bye = request addr {|{"id":53,"kind":"shutdown"}|} in
  check_ok "shutdown acknowledged" bye;
  Alcotest.(check bool)
    "stopping" true
    (get_bool [ "result"; "stopping" ] bye);
  Serve.Daemon.wait t;
  Alcotest.(check bool)
    "socket gone" true
    (match Serve.Client.connect addr with
    | c ->
      Serve.Client.close c;
      false
    | exception Unix.Unix_error _ -> true)

(* --------------------------------------------------------------- codec *)

let test_job_parse_roundtrip () =
  let ok s = match Serve.Job.parse_string s with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let j = ok (solve_req ~id:7 ~extra:{|,"solver":"cg","timeout_ms":250|} ()) in
  Alcotest.(check int) "id" 7 j.Serve.Job.id;
  Alcotest.(check bool)
    "timeout parsed" true
    (j.Serve.Job.timeout_ms = Some 250.);
  (match j.Serve.Job.payload with
  | Serve.Job.Solve { solver = Serve.Job.Cg_baseline; g; _ } ->
    Alcotest.(check int) "generated nodes" 24 (Graph.n g)
  | _ -> Alcotest.fail "expected a cg solve");
  let explicit =
    ok
      {|{"kind":"mst","graph":{"n":3,"edges":[[0,1,1.5],[1,2,2.0],[0,2,4.0]]}}|}
  in
  (match explicit.Serve.Job.payload with
  | Serve.Job.Mst { g } ->
    Alcotest.(check int) "explicit nodes" 3 (Graph.n g);
    Alcotest.(check int) "explicit edges" 3 (Graph.m g)
  | _ -> Alcotest.fail "expected an mst job");
  match Serve.Job.parse_string "[1,2,3]" with
  | Ok _ -> Alcotest.fail "array accepted as request"
  | Error _ -> ()

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "malformed json keeps connection" `Quick
            test_malformed_json_keeps_connection;
          Alcotest.test_case "unknown kind refused" `Quick
            test_unknown_kind_refused;
          Alcotest.test_case "bad instances refused" `Quick
            test_bad_graph_refused;
          Alcotest.test_case "oversized frame refused, connection kept" `Quick
            test_oversized_frame_refused_connection_kept;
          Alcotest.test_case "corrupt stream closed" `Quick
            test_corrupt_stream_closed;
          Alcotest.test_case "tcp: address answers a solve" `Quick
            test_tcp_addr;
          Alcotest.test_case "job codec" `Quick test_job_parse_roundtrip;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "queue timeout" `Quick test_queue_timeout;
          Alcotest.test_case "cache hit returns identical output" `Quick
            test_cache_hit_identical_output;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
        ] );
      ( "policy",
        [
          Alcotest.test_case "off lets corruption escape" `Quick
            test_policy_off_lets_corruption_escape;
          Alcotest.test_case "verify refuses" `Quick test_policy_verify_refuses;
          Alcotest.test_case "recover certifies" `Quick
            test_policy_recover_certifies;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "stats and shutdown" `Quick
            test_stats_and_shutdown;
        ] );
    ]
