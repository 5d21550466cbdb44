(* Protocol and scheduling tests for the cc_serve daemon, run against a
   real daemon on a Unix-domain socket in a fresh temp path per test.
   Standalone executable: the suite spawns domains (workers + listener)
   per daemon and several daemons per run. *)

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

(* The solver refuses an eps that is not finite and positive, by name;
   the CG baseline used to answer "eps":1e400 (which parses to ∞) after
   0 iterations with residual 1.0, and "eps":0 unconverged. The body goes
   through [Client.request_string], which must send the caller's text as
   written: re-encoded, 1e400 would reach the daemon as null. *)
let test_bad_eps_refused () =
  with_daemon (fun addr ->
      List.iter
        (fun (eps, shown) ->
          let r =
            request addr
              (Printf.sprintf
                 {|{"kind":"solve","solver":"cg","graph":{"gen":"weighted_gnp","n":30,"p":0.3,"u":8},"eps":%s}|}
                 eps)
          in
          check_refused ("eps " ^ eps) r;
          Alcotest.(check (option string))
            ("eps " ^ eps ^ ": names eps")
            (Some
               (Printf.sprintf
                  "Solver.prepare_cg: eps %s is not finite and positive" shown))
            (Serve.Client.error_message r))
        [ ("1e400", "inf"); ("0", "0") ])

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

(* A request far over the limit is drained in bounded chunks rather than
   read whole, then refused; the connection keeps serving. *)
let test_large_request_drained () =
  with_daemon ~max_bytes:256 (fun addr ->
      let c = Serve.Client.connect addr in
      let big =
        Serve.Client.request_string ~deadline:(deadline ()) c
          (Printf.sprintf {|{"id":6,"kind":"stats","pad":"%s"}|}
             (String.make (64 * 1024) 'x'))
      in
      check_refused "64-KB request" big;
      for id = 7 to 9 do
        check_ok "served after the 64-KB request"
          (Serve.Client.request_string ~deadline:(deadline ()) c
             (Printf.sprintf {|{"id":%d,"kind":"stats"}|} id))
      done;
      Serve.Client.close c)

(* A request nested 100,000 arrays deep is refused by the parser's depth
   bound instead of overflowing the listener domain's stack; the daemon
   answers the next request. *)
let test_deep_nesting_refused () =
  with_daemon (fun addr ->
      let link = Link.dial ~peer:"test" (Link.address addr) in
      let exchange ~id payload =
        Link.send link
          {
            Wire.Frame.kind = Serve.Job.frame_job;
            src = 0;
            dst = 0;
            seq = id;
            epoch = 0;
            payload = Bytes.of_string payload;
          };
        let reply = Link.recv ~deadline:(deadline ()) link in
        match Json.of_string (Bytes.to_string reply.Wire.Frame.payload) with
        | Ok j -> j
        | Error e -> Alcotest.fail e
      in
      let deep = exchange ~id:1 (String.make 100_000 '[') in
      check_refused "100,000 open brackets" deep;
      Alcotest.(check bool) "refused by the depth bound" true
        (match Serve.Client.error_message deep with
        | Some m -> String.ends_with ~suffix:"nesting deeper than 512" m
        | None -> false);
      let s = exchange ~id:2 {|{"id":2,"kind":"stats"}|} in
      Link.close link;
      check_ok "stats after the deep request" s;
      Alcotest.(check int) "refused" 1 (get_int [ "result"; "jobs_refused" ] s))

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

(* One listener domain reads every client's frames, so a client that sends
   part of a frame must not stall the others: its frame gets a fixed
   bound (1 s), after which the daemon hangs up on it. Client A sends a
   header announcing 100 payload bytes and nothing after it; client B's
   stats must be answered within that bound plus 1 s. *)
let test_partial_frame_dropped () =
  with_daemon (fun addr ->
      let a = Link.dial ~peer:"test" (Link.address addr) in
      Fun.protect
        ~finally:(fun () -> Link.close a)
        (fun () ->
          let frame =
            Wire.Frame.encode
              { Wire.Frame.kind = Serve.Job.frame_job; src = 0; dst = 0;
                seq = 0; epoch = 0; payload = Bytes.make 100 ' ' }
          in
          let written =
            Unix.write (Link.fd a) frame 0 Wire.Frame.header_bytes (* cc_lint: allow L9 *)
          in
          Alcotest.(check int) "header written" Wire.Frame.header_bytes
            written;
          (* let the listener start on A's frame before B arrives *)
          Unix.sleepf 0.1;
          let t0 = Unix.gettimeofday () in
          let b = Serve.Client.connect addr in
          let stats =
            Serve.Client.request_string ~deadline:(t0 +. 2.0) b
              {|{"id":1,"kind":"stats"}|}
          in
          let took = Unix.gettimeofday () -. t0 in
          Serve.Client.close b;
          check_ok "stats beside a stalled client" stats;
          Alcotest.(check bool)
            (Printf.sprintf "answered in %.2f s, bound 2 s" took)
            true (took < 2.0);
          Alcotest.(check bool) "stalled client hung up on" true
            (match Link.recv ~deadline:(Unix.gettimeofday () +. 2.0) a with
            | _ -> false
            | exception Link.Closed _ -> true)))

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
     expired. The guards must outlast that head start however fast a
     preparation gets: one n=80 guard was not enough when a preparation
     took ~40 ms, and three n=80 guards (about 2 ms each once the
     sparsifier stopped building discarded candidates) sometimes
     drained first on a loaded 2-core host; an n=240 preparation takes
     about 17 ms there. *)
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
                         (solve_req ~id ~n:240 ~extra:{|,"nocache":true|} ())))
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

(* ----------------------------------------------- bad generator specs *)

(* Each of these makes its generator raise; before generators ran inside
   Exec, the listener ran them and the first one ended the daemon. *)
let bad_specs =
  [
    {|{"id":1,"kind":"solve","graph":{"gen":"barbell","k":2}}|};
    {|{"id":2,"kind":"solve","graph":{"gen":"grid","rows":-1,"cols":2}}|};
    {|{"id":3,"kind":"solve","graph":{"gen":"weighted_gnp","n":10,"p":0.5,"u":0}}|};
    {|{"id":4,"kind":"solve","graph":{"gen":"expander","n":-3,"d":2}}|};
    {|{"id":5,"kind":"solve","graph":{"gen":"expander","n":0,"d":2}}|};
    {|{"id":6,"kind":"maxflow","net":{"gen":"layered","layers":0,"width":0,"maxcap":1}}|};
    {|{"id":7,"kind":"mst","graph":{"gen":"connected_gnp","n":-4,"p":0.5}}|};
  ]

let test_bad_specs_refused () =
  with_daemon (fun addr ->
      let c = Serve.Client.connect addr in
      List.iter
        (fun body ->
          check_refused body
            (Serve.Client.request_string ~deadline:(deadline ()) c body))
        bad_specs;
      let s =
        Serve.Client.request_string ~deadline:(deadline ()) c
          {|{"id":8,"kind":"stats"}|}
      in
      Serve.Client.close c;
      check_ok "stats after the bad specs" s;
      Alcotest.(check int) "every bad spec refused" (List.length bad_specs)
        (get_int [ "result"; "jobs_refused" ] s);
      Alcotest.(check int) "no cache entry left behind" 0
        (get_int [ "result"; "cache"; "entries" ] s))

(* ------------------------------------------------- spec-keyed cache *)

let parse_ok s =
  match Serve.Job.parse_string s with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let run_ok ?(policy = Serve.Exec.Off) cache s =
  match Serve.Exec.run ~policy ~cache (parse_ok s) with
  | Ok o -> o
  | Error e -> Alcotest.fail e

let cache_state (o : Serve.Exec.outcome) =
  match o.Serve.Exec.cache with
  | `Hit -> "hit"
  | `Miss -> "miss"
  | `Bypass -> "bypass"

let wgnp_req ?(p = "0.3") ?(seed = {|,"seed":3|}) ?(n = 40) ?(u = 8)
    ?(extra = "") () =
  Printf.sprintf
    {|{"kind":"solve","graph":{"gen":"weighted_gnp","n":%d,"p":%s,"u":%d%s}%s}|}
    n p u seed extra

let test_spec_key_canonical () =
  let cache = Serve.Cache.create ~cap:32 in
  let expect what state req =
    Alcotest.(check string) what state (cache_state (run_ok cache req))
  in
  expect "first spec" "miss" (wgnp_req ());
  expect "p spelled 3e-1" "hit" (wgnp_req ~p:"3e-1" ());
  expect "p spelled 0.30" "hit" (wgnp_req ~p:"0.30" ());
  expect "another seed" "miss" (wgnp_req ~seed:{|,"seed":4|} ());
  expect "another n" "miss" (wgnp_req ~n:41 ());
  expect "another u" "miss" (wgnp_req ~u:9 ());
  expect "another eps" "miss" (wgnp_req ~extra:{|,"eps":1e-7|} ());
  expect "another solver" "miss" (wgnp_req ~extra:{|,"solver":"cg"|} ());
  expect "seed omitted" "miss" (wgnp_req ~seed:"" ());
  expect "seed 1 is the default" "hit" (wgnp_req ~seed:{|,"seed":1|} ())

(* The same graph as a spec and as an explicit edge list: two cache
   entries, one answer. *)
let test_spec_and_explicit_agree () =
  let g = Gen.weighted_gnp ~seed:3L 40 0.3 8 in
  let edges =
    Json.List
      (Array.to_list
         (Array.map
            (fun (e : Graph.edge) ->
              Json.List [ Json.Int e.Graph.u; Json.Int e.Graph.v;
                          Json.Float e.Graph.w ])
            (Graph.edges g)))
  in
  let explicit =
    Json.to_string ~minify:true
      (Json.Assoc
         [
           ("kind", Json.String "solve");
           ("graph", Json.Assoc [ ("n", Json.Int 40); ("edges", edges) ]);
         ])
  in
  let cache = Serve.Cache.create ~cap:8 in
  let a = run_ok cache (wgnp_req ()) and b = run_ok cache explicit in
  Alcotest.(check string) "explicit list is its own entry" "miss"
    (cache_state b);
  let field k (o : Serve.Exec.outcome) =
    Json.to_string (List.assoc k o.Serve.Exec.fields)
  in
  Alcotest.(check string) "same x_fnv" (field "x_fnv" a) (field "x_fnv" b);
  Alcotest.(check int) "same rounds" a.Serve.Exec.rounds b.Serve.Exec.rounds

(* Under Verify a hit certifies its answer against the graph cached with
   the prepared handle: the corrupted answer of an [inject] is refused on
   a hit exactly as on a miss. *)
let test_verify_inject_on_hit () =
  let cache = Serve.Cache.create ~cap:8 in
  let policy = Serve.Exec.Verify in
  Alcotest.(check string) "warm" "miss"
    (cache_state (run_ok ~policy cache (wgnp_req ())));
  let hits0 = (Serve.Cache.stats cache).Serve.Cache.hits in
  (match
     Serve.Exec.run ~policy ~cache
       (parse_ok (wgnp_req ~extra:{|,"inject":true|} ()))
   with
  | Ok _ -> Alcotest.fail "corrupted answer on a hit was not refused"
  | Error msg ->
    Alcotest.(check bool) ("refused by certification: " ^ msg) true
      (String.starts_with ~prefix:"certification failed" msg));
  Alcotest.(check int) "it was a hit" (hits0 + 1)
    (Serve.Cache.stats cache).Serve.Cache.hits;
  Alcotest.(check string) "an honest hit still passes" "hit"
    (cache_state (run_ok ~policy cache (wgnp_req ())))

(* An rhs of the wrong length is refused before the sparsifier is
   prepared, on a spec and on an explicit graph alike: the refused miss
   leaves no entry and evicts none, so the warm entry of a one-slot cache
   still hits. *)
let test_bad_rhs_leaves_no_entry () =
  let cache = Serve.Cache.create ~cap:1 in
  Alcotest.(check string) "warm" "miss" (cache_state (run_ok cache (wgnp_req ())));
  let refused what req =
    match Serve.Exec.run ~policy:Serve.Exec.Off ~cache (parse_ok req) with
    | Ok _ -> Alcotest.failf "%s: a 3-entry rhs was accepted" what
    | Error msg ->
      Alcotest.(check bool) (what ^ ": " ^ msg) true
        (String.starts_with ~prefix:{|field "b" has 3 entries|} msg)
  in
  refused "spec" (wgnp_req ~n:41 ~extra:{|,"b":[1,2,3]|} ());
  refused "explicit"
    {|{"kind":"solve","graph":{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1]]},"b":[1,2,3]}|};
  let st = Serve.Cache.stats cache in
  Alcotest.(check int) "one entry" 1 st.Serve.Cache.entries;
  Alcotest.(check int) "no eviction" 0 st.Serve.Cache.evictions;
  Alcotest.(check string) "the warm entry still hits" "hit"
    (cache_state (run_ok cache (wgnp_req ())))

(* A hit does only the per-rhs work: parsing the request and running it on
   a warmed entry allocates a few thousand words (the rhs and the reply
   fields), not the graph's hundreds of thousands. Counted as minor plus
   direct major words, so a large block cannot hide; native only, like
   the zero-alloc kernel tests. *)
let test_hit_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let n = 160 in
    let rng = Prng.create 11L in
    let b =
      Json.List
        (List.init n (fun _ -> Json.Float (Prng.float rng 2. -. 1.)))
    in
    let req =
      Json.to_string ~minify:true
        (Json.Assoc
           [
             ("id", Json.Int 1);
             ("kind", Json.String "solve");
             ( "graph",
               Json.Assoc
                 [
                   ("gen", Json.String "weighted_gnp");
                   ("n", Json.Int n);
                   ("p", Json.Float 0.3);
                   ("u", Json.Int 8);
                 ] );
             ("b", b);
           ])
    in
    let cache = Serve.Cache.create ~cap:8 in
    let policy = Serve.Exec.Verify in
    let hit () =
      let o = run_ok ~policy cache req in
      Alcotest.(check string) "cache state" "hit" (cache_state o)
    in
    ignore (run_ok ~policy cache req : Serve.Exec.outcome);
    hit ();
    (* Gc.minor_words for the minor heap (Gc.counters' minor count lags
       between collections), Gc.counters for direct major allocations. *)
    let words () =
      let _, promoted, major = Gc.counters () in
      Gc.minor_words () +. major -. promoted
    in
    let w0 = words () in
    hit ();
    let used = words () -. w0 in
    Alcotest.(check bool)
      (Printf.sprintf "a hit allocates %.0f words (< 20000)" used)
      true (used < 20000.)
  end

(* -------------------------------------------------- decoder fuzzing *)

(* Random JSON over the protocol's own vocabulary, so that a good share
   of the trees reach the decoders behind "kind", "graph" and "net". *)
let vocabulary =
  [ "id"; "kind"; "graph"; "net"; "gen"; "n"; "p"; "u"; "seed"; "d";
    "rows"; "cols"; "k"; "edges"; "arcs"; "b"; "eps"; "solver"; "s"; "t";
    "layers"; "width"; "maxcap"; "m"; "timeout_ms"; "inject"; "nocache";
    "return_x"; "solve"; "sparsify"; "maxflow"; "mst"; "stats"; "cg";
    "chebyshev"; "connected_gnp"; "weighted_gnp"; "expander"; "grid";
    "barbell"; "layered"; "random_network" ]

let json_gen =
  let open QCheck.Gen in
  let word = oneof [ oneofl vocabulary; string_size ~gen:printable (0 -- 6) ] in
  let leaf =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (4, map (fun i -> Json.Int i) (-4 -- 12));
        (1, map (fun i -> Json.Int i) int);
        (2, map (fun f -> Json.Float f) float);
        (3, map (fun s -> Json.String s) word);
      ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun l -> Json.List l)
                   (list_size (0 -- 4) (self (depth - 1))) );
               ( 3,
                 map
                   (fun l -> Json.Assoc l)
                   (list_size (0 -- 6) (pair word (self (depth - 1)))) );
             ])

(* Raw text too: a serialized tree cut short or with one byte replaced,
   and strings holding malformed \u escapes, reach the parser's error
   paths. *)
let text_gen =
  let open QCheck.Gen in
  json_gen >>= fun j ->
  let s = Json.to_string ~minify:true j in
  let len = String.length s in
  frequency
    [
      (2, return s);
      (1, map (fun k -> String.sub s 0 (k mod (len + 1))) nat);
      ( 1,
        map2
          (fun k c ->
            if len = 0 then String.make 1 c
            else String.mapi (fun i x -> if i = k mod len then c else x) s)
          nat char );
      (1, map (fun e -> {|{"kind":"solve","b":"|} ^ e ^ {|"}|})
           (oneofl [ {|\u12G4|}; {|\u|}; {|\uD800\u0000|}; {|\x|} ]));
    ]

let parses_cleanly text =
  match Serve.Job.parse_string text with Ok _ | Error _ -> true

(* Well-formed requests for every generator, each parameter a small
   integer (zero and negative included), with the vertex count the
   generator would produce if it accepted them. *)
let gens =
  [
    ("graph", "connected_gnp", [ "n"; "p"; "seed" ], fun v -> v.(0));
    ("graph", "weighted_gnp", [ "n"; "p"; "u"; "seed" ], fun v -> v.(0));
    ("graph", "expander", [ "n"; "d" ], fun v -> v.(0));
    ("graph", "grid", [ "rows"; "cols" ], fun v -> v.(0) * v.(1));
    ("graph", "barbell", [ "k" ], fun v -> 2 * v.(0));
    ("net", "layered", [ "layers"; "width"; "maxcap"; "seed" ],
     fun v -> (v.(0) * v.(1)) + 2);
    ("net", "random_network", [ "n"; "m"; "maxcap"; "seed" ], fun v -> v.(0));
  ]

let request_gen =
  let open QCheck.Gen in
  oneofl gens >>= fun (operand, gen, params, nodes) ->
  array_repeat (List.length params) (-3 -- 9) >>= fun v ->
  (if operand = "net" then return "maxflow"
   else oneofl [ "solve"; "sparsify"; "mst" ])
  >>= fun kind ->
  let spec =
    Json.Assoc
      (("gen", Json.String gen)
      :: List.mapi (fun i k -> (k, Json.Int v.(i))) params)
  in
  let text =
    Json.to_string ~minify:true
      (Json.Assoc [ ("kind", Json.String kind); (operand, spec) ])
  in
  return (text, nodes v)

let fuzz_tests =
  [
    QCheck.Test.make ~name:"decoder never raises on random JSON" ~count:600
      (QCheck.make ~print:Fun.id text_gen)
      parses_cleanly;
    QCheck.Test.make
      ~name:"generator specs: decoder and Exec.run never raise" ~count:250
      (QCheck.make ~print:(fun (t, n) -> Printf.sprintf "%s (n = %d)" t n)
         request_gen)
      (fun (text, n) ->
        match Serve.Job.parse_string text with
        | Error _ -> true
        | Ok job ->
          n > 64
          ||
          let cache = Serve.Cache.create ~cap:2 in
          match Serve.Exec.run ~policy:Serve.Exec.Verify ~cache job with
          | Ok _ | Error _ -> true);
  ]

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
  | Serve.Job.Solve
      { solver = Serve.Job.Cg_baseline; g = Serve.Job.Spec _ as g; _ } ->
    Alcotest.(check int) "generated nodes" 24 (Graph.n (Serve.Job.build g))
  | _ -> Alcotest.fail "expected a cg solve on a generator spec");
  let explicit =
    ok
      {|{"kind":"mst","graph":{"n":3,"edges":[[0,1,1.5],[1,2,2.0],[0,2,4.0]]}}|}
  in
  (match explicit.Serve.Job.payload with
  | Serve.Job.Mst { g = Serve.Job.Given g } ->
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
          Alcotest.test_case "bad eps refused by name" `Quick
            test_bad_eps_refused;
          Alcotest.test_case "oversized frame refused, connection kept" `Quick
            test_oversized_frame_refused_connection_kept;
          Alcotest.test_case "64-KB request drained, connection kept" `Quick
            test_large_request_drained;
          Alcotest.test_case "deep nesting refused" `Quick
            test_deep_nesting_refused;
          Alcotest.test_case "corrupt stream closed" `Quick
            test_corrupt_stream_closed;
          Alcotest.test_case "partial frame cannot stall the listener" `Quick
            test_partial_frame_dropped;
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
      ( "cache",
        [
          Alcotest.test_case "bad generator specs refused" `Quick
            test_bad_specs_refused;
          Alcotest.test_case "spec key canonical" `Quick
            test_spec_key_canonical;
          Alcotest.test_case "spec and explicit graph agree" `Quick
            test_spec_and_explicit_agree;
          Alcotest.test_case "verify certifies a hit" `Quick
            test_verify_inject_on_hit;
          Alcotest.test_case "bad rhs leaves no entry" `Quick
            test_bad_rhs_leaves_no_entry;
          Alcotest.test_case "hit allocation bounded" `Quick
            test_hit_allocation;
        ] );
      ( "fuzz",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false
             ~rand:(Random.State.make [| 22 |]))
          fuzz_tests );
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
