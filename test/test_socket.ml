(* Socket-transport specifics that need real worker processes: frame
   coalescing (the shard-level Lenzen batching, asserted through the
   wire.frames metric), worker-death surfacing as [Shard_down], the TCP
   leg, and fault-injection composing unchanged over the sharded
   transport. Runs standalone: creating a session re-execs this binary
   into workers, and the equivalence sweep (test_kernel_equiv.ml) already
   owns the bit-identity legs. *)

module Sock = Clique.Socket
module Shard = Runtime.Shard
module M = Runtime.Mailbox
module S = Fault.Schedule
module FSock = Fault.Inject.Make (Clique.Socket)
module RSock = Runtime.Make (Clique.Socket)
module Rec = Fault.Recover.Make (RSock)

(* Watchdog: every supervised wait in the transport is deadline-bounded,
   so the whole suite finishing is itself part of the contract. A stuck
   test is a bug; SIGALRM turns it into a loud failure instead of a CI
   timeout with no backtrace. *)
let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "test_socket: watchdog expired — a wait is unbounded";
         exit 2));
  ignore (Unix.alarm 240)

(* The diversions below dial a rendezvous the test process is about to
   bind, so they retry until it listens. Dialing sends nothing. *)
let rec dial_rendezvous addr =
  match Wire.Link.dial ~peer:"coordinator" (Wire.Link.address addr) with
  | l -> l
  | exception Unix.Unix_error _ ->
    Unix.sleepf 0.02;
    dial_rendezvous addr

(* Stay until the coordinator hangs up, then exit. *)
let drain_until_closed l =
  (try
     while true do
       ignore (Wire.Link.recv l)
     done
   with Wire.Link.Closed _ | Wire.Frame.Malformed _ -> ());
  exit 0

(* Diversion: spawned with CC_TEST_REMOTE_WORKER=<addr>, this process is
   a remote worker dialing that coordinator, exactly as bin/cc_worker
   makes one. *)
let () =
  match Sys.getenv_opt "CC_TEST_REMOTE_WORKER" with
  | None -> ()
  | Some addr -> Sock.remote_worker addr

(* Diversion: spawned as a mute client, this process connects to the
   given rendezvous and never sends a byte — the bootstrap-hang
   regression (a pre-supervision coordinator blocked forever on it). *)
let () =
  match Sys.getenv_opt "CC_TEST_MUTE_CLIENT" with
  | None -> ()
  | Some addr ->
    let _link = dial_rendezvous addr in
    Unix.sleep 600;
    exit 0

(* Join the rendezvous in CC_TEST_RENDEZVOUS as a remote worker whose
   hello reports mesh address [mesh]: read the slot assignment and the
   Config, answer it with a Ready, and return the link and the slot.
   Kinds 9 and 11 are the hello and ready frames of DESIGN §11.1. *)
let join_remote ~mesh =
  let l = dial_rendezvous (Sys.getenv "CC_TEST_RENDEZVOUS") in
  let hello = Wire.Frame.Writer.create ~hint:64 () in
  Wire.Frame.Writer.string hello mesh;
  Wire.Link.send l
    { Wire.Frame.kind = 9; src = -1; dst = -1; seq = 0; epoch = 0;
      payload = Wire.Frame.Writer.contents hello };
  let assign = Wire.Link.recv l in
  let config = Wire.Link.recv l in
  Wire.Link.send l
    { Wire.Frame.kind = 11; src = assign.Wire.Frame.dst; dst = -1;
      seq = config.Wire.Frame.seq; epoch = config.Wire.Frame.epoch;
      payload = Bytes.empty };
  (l, assign.Wire.Frame.dst)

(* Diversion: spawned as a remote worker that reports a foreign mesh
   address, [unix:<CC_TEST_FOREIGN_MESH>], this process joins and stays
   until the coordinator hangs up. *)
let () =
  match Sys.getenv_opt "CC_TEST_FOREIGN_MESH" with
  | None -> ()
  | Some file ->
    let l, _ = join_remote ~mesh:("unix:" ^ file) in
    drain_until_closed l

(* Diversion: spawned as a remote worker that answers its first Exchange
   with a reply that does not hold what it announces — an Inboxes frame
   of -1 slices ([CC_TEST_BAD_REPLY=slices]) or a PeerDown frame naming
   slot 99 ([peer]) — then stays until the coordinator hangs up. Kinds 3
   and 7 are the inboxes and peer-down frames of DESIGN §11.1. *)
let () =
  match Sys.getenv_opt "CC_TEST_BAD_REPLY" with
  | None -> ()
  | Some what ->
    let l, slot = join_remote ~mesh:"unix:/nonexistent" in
    let exchange = Wire.Link.recv l in
    let w = Wire.Frame.Writer.create () in
    let kind =
      if what = "slices" then begin
        List.iter (Wire.Frame.Writer.int w) [ 0; 0; 0; 0; -1 ];
        3
      end
      else begin
        Wire.Frame.Writer.ints w [| 99 |];
        7
      end
    in
    Wire.Link.send l
      { Wire.Frame.kind; src = slot; dst = -1; seq = exchange.Wire.Frame.seq;
        epoch = exchange.Wire.Frame.epoch;
        payload = Wire.Frame.Writer.contents w };
    drain_until_closed l

(* Diversion: spawned as a remote worker whose hello announces a mesh
   address of [max_int - 3] bytes and carries none of them, this process
   dials the rendezvous in CC_TEST_BAD_HELLO and stays until the
   coordinator hangs up. *)
let () =
  match Sys.getenv_opt "CC_TEST_BAD_HELLO" with
  | None -> ()
  | Some addr ->
    let l = dial_rendezvous addr in
    let hello = Wire.Frame.Writer.create ~hint:8 () in
    Wire.Frame.Writer.int hello (max_int - 3);
    Wire.Link.send l
      { Wire.Frame.kind = 9; src = -1; dst = -1; seq = 0; epoch = 0;
        payload = Wire.Frame.Writer.contents hello };
    drain_until_closed l

(* An ephemeral TCP port for tests that must know the address before the
   coordinator binds it (bind-then-close; the reuse race is benign at
   test scale). *)
let ephemeral_port () =
  (* Probing the OS for a free port: no bytes move over these calls. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 (* cc_lint: allow L9 *) in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) (* cc_lint: allow L9 *);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  Unix.close fd;
  port

let spawn_with_env extra =
  let env =
    Array.append (Unix.environment ()) (Array.of_list extra)
  in
  Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env
    Unix.stdin Unix.stdout Unix.stderr

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let inboxes_t = Alcotest.(array (list (pair int (array int))))

let stat name t =
  match List.assoc_opt name (Sock.stats t) with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "missing stat %s" name)

(* Every ordered pair carries one 1-word message: maximal cross-shard
   traffic, still within the default width. *)
let all_to_all n =
  Array.init n (fun v ->
      List.filter_map
        (fun d -> if d = v then None else Some (d, [| (v * 100) + d |]))
        (List.init n (fun d -> d)))

(* ---------------------------------------------------------- coalescing *)

(* One round = one request + one reply per worker on the coordinator
   links, plus at most one mesh frame per ordered (shard, shard) pair
   with cross traffic — here both pairs, despite 32 crossing messages. *)
let test_coalescing_all_to_all () =
  let n = 8 in
  let t = Sock.create ~shards:2 n in
  let before = stat "wire.frames" t in
  let out = all_to_all n in
  let expected, words = M.deliver ~n ~width:2 out in
  Alcotest.check inboxes_t "inboxes parity" expected (Sock.exchange t out);
  Alcotest.(check int) "frames: 2 requests + 2 replies + 2 mesh" 6
    (stat "wire.frames" t - before);
  Alcotest.(check int) "crossings counted" 32 (stat "shard.crossings" t);
  Alcotest.(check int) "words" words (Sock.words_sent t);
  Alcotest.(check int) "one round" 1 (Sock.rounds t);
  Sock.close t

let test_coalescing_no_cross_traffic () =
  let n = 8 in
  let t = Sock.create ~shards:2 n in
  (* every node talks only within its own shard: no mesh frames at all *)
  let local =
    Array.init n (fun v ->
        let lo = if v < 4 then 0 else 4 in
        [ (lo + ((v - lo + 1) mod 4), [| v |]) ])
  in
  let before = stat "wire.frames" t in
  let expected, _ = M.deliver ~n ~width:2 local in
  Alcotest.check inboxes_t "local inboxes parity" expected
    (Sock.exchange t local);
  Alcotest.(check int) "frames: requests + replies only" 4
    (stat "wire.frames" t - before);
  Alcotest.(check int) "no crossings" 0 (stat "shard.crossings" t);
  Sock.close t

(* -------------------------------------------------------- error parity *)

let capture f = match f () with _ -> "no exception" | exception e -> Printexc.to_string e

let test_width_error_across_processes () =
  let n = 6 in
  let t = Sock.create ~shards:3 n in
  let bad = Array.make n [] in
  (* 1 -> 5 accumulates 1+2 words at width 2 (gidx 1); 4 -> 2 carries 3
     words outright (gidx 2): the minimal-gidx violation must win, with
     the exact in-process exception. *)
  bad.(1) <- [ (5, [| 7 |]); (5, [| 8; 9 |]) ];
  bad.(4) <- [ (2, [| 1; 2; 3 |]) ];
  Alcotest.(check string) "same first width error"
    (capture (fun () -> M.deliver ~n ~width:2 bad))
    (capture (fun () -> Sock.exchange t bad));
  let oob = Array.make n [] in
  oob.(3) <- [ (n + 1, [| 1 |]) ];
  Alcotest.(check string) "same range error"
    (capture (fun () -> M.deliver ~n ~width:2 oob))
    (capture (fun () -> Sock.exchange t oob));
  (* an application error leaves the session usable *)
  let out = all_to_all n in
  let expected, _ = M.deliver ~n ~width:2 out in
  Alcotest.check inboxes_t "session survives the error round" expected
    (Sock.exchange t out);
  let values = Array.init n (fun v -> [| v; v * v; v + 7 |]) in
  Alcotest.(check string) "same broadcast width error"
    (capture (fun () -> M.broadcast ~n ~width:2 values))
    (capture (fun () -> Sock.broadcast t values));
  Sock.close t

(* -------------------------------------------------------- worker death *)

let stall_schedule =
  S.create ~seed:7 [ S.rule S.Stall 0.3; S.rule S.Drop 0.1 ]

(* Kill a worker mid-session under an active fault schedule: the next
   round must surface a structured [Shard_down] naming the shard and the
   round — never hang — and the session must stay down. *)
let test_worker_death_surfaces () =
  let n = 8 in
  let t = Sock.create ~shards:2 n in
  let tr = FSock.inject ~schedule:stall_schedule t in
  for _ = 1 to 3 do
    ignore (FSock.exchange tr (all_to_all n))
  done;
  Alcotest.(check bool) "schedule actually injects" true
    (FSock.injected_total tr > 0);
  let round_before = Sock.rounds t in
  (match Sock.pids t with
  | [ _; pid1 ] ->
    Unix.kill pid1 Sys.sigkill;
    ignore (Unix.waitpid [] pid1)
  | pids ->
    Alcotest.fail (Printf.sprintf "expected 2 workers, got %d" (List.length pids)));
  (match FSock.exchange tr (all_to_all n) with
  | _ -> Alcotest.fail "exchange through a dead worker must raise"
  | exception Shard.Shard_down { shard; round; during } ->
    Alcotest.(check int) "names the dead shard" 1 shard;
    Alcotest.(check int) "names the round it died in" round_before round;
    Alcotest.(check string) "during the exchange" "exchange" during);
  (match Sock.exchange t (all_to_all n) with
  | _ -> Alcotest.fail "a down session must stay down"
  | exception Shard.Shard_down { shard; _ } ->
    Alcotest.(check int) "still names the shard" 1 shard);
  Sock.close t

(* ---------------------------------------------------------- kill matrix *)

(* Kill shard [victim] of session [t] with SIGKILL, mid-session. *)
let kill_shard t victim =
  match List.nth (Sock.pids t) victim with
  | pid when pid > 0 ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  | _ -> Alcotest.fail "victim shard has no local pid"

(* Respawn: a SIGKILLed worker is replaced and the aborted round replayed
   — the output is bit-identical to an undisturbed run, the replay is
   charged to the "recovery" ledger phase, and the whole thing composes
   with the certified verify-and-retry driver unchanged. *)
let test_respawn_bit_identical () =
  let n = 8 in
  let t =
    Sock.create ~shards:2 ~policy:Shard.Respawn ~timeout:10.0 ~backoff:0.05 n
  in
  let rt = RSock.create t in
  let out = all_to_all n in
  let reference, _ = M.deliver ~n ~width:2 out in
  Alcotest.check inboxes_t "clean round parity" reference
    (RSock.exchange rt out);
  let epoch_before = Sock.epoch t in
  kill_shard t 1;
  (* drive the post-kill round through the certified retry driver: the
     checker certifies the recovered output against the fault-free
     reference, so a wrong replay cannot pass silently *)
  let outcome =
    Rec.run ~name:"kill-respawn" rt
      ~check:(fun got ->
        if got = reference then Fault.Check.Pass
        else
          Fault.Check.Fail
            { invariant = "bit-identity"; counterexample = "inboxes differ" })
      (fun () -> RSock.exchange rt out)
  in
  Alcotest.check inboxes_t "recovered round bit-identical" reference
    outcome.Fault.Recover.value;
  Alcotest.(check bool) "checker certified on the first attempt" false
    outcome.Fault.Recover.recovered;
  Alcotest.(check bool) "replay charged to the recovery phase" true
    (RSock.phase_rounds rt "recovery" > 0);
  Alcotest.(check bool) "respawn counted" true (stat "shard.respawn" t >= 1);
  Alcotest.(check bool) "epoch bumped" true (Sock.epoch t > epoch_before);
  Alcotest.(check int) "still two live workers" 2 (Sock.live_workers t);
  Alcotest.(check int) "transport recovery counter matches the ledger"
    (RSock.phase_rounds rt "recovery")
    (Sock.recovery_rounds t);
  (* the session keeps working at full strength afterwards *)
  Alcotest.check inboxes_t "next round parity" reference
    (RSock.exchange rt out);
  let values = Array.init n (fun v -> [| v; v * v |]) in
  Alcotest.(check (array (array int))) "broadcast parity after recovery"
    (fst (M.broadcast ~n ~width:2 values))
    (RSock.broadcast rt values);
  Sock.close t

(* Drain: the dead shard's range is reassigned to a survivor and the
   session continues degraded — same outputs, fewer workers. *)
let test_drain_continues_degraded () =
  let n = 9 in
  let t = Sock.create ~shards:3 ~policy:Shard.Drain ~timeout:10.0 n in
  let out = all_to_all n in
  let reference, _ = M.deliver ~n ~width:2 out in
  Alcotest.check inboxes_t "clean round parity" reference (Sock.exchange t out);
  let epoch_before = Sock.epoch t in
  kill_shard t 1;
  Alcotest.check inboxes_t "drained round bit-identical" reference
    (Sock.exchange t out);
  Alcotest.(check int) "one shard drained" 1 (stat "shard.drain" t);
  Alcotest.(check int) "two survivors" 2 (Sock.live_workers t);
  Alcotest.(check bool) "epoch bumped" true (Sock.epoch t > epoch_before);
  Alcotest.(check bool) "replay counted as recovery" true
    (Sock.recovery_rounds t >= 1);
  (* degraded but fully functional: exchange, broadcast, width errors *)
  Alcotest.check inboxes_t "next degraded round parity" reference
    (Sock.exchange t out);
  let values = Array.init n (fun v -> [| v; v + 1 |]) in
  Alcotest.(check (array (array int))) "degraded broadcast parity"
    (fst (M.broadcast ~n ~width:2 values))
    (Sock.broadcast t values);
  let bad = Array.make n [] in
  bad.(1) <- [ (5, [| 1; 2; 3 |]) ];
  Alcotest.(check string) "degraded width error identical"
    (capture (fun () -> M.deliver ~n ~width:2 bad))
    (capture (fun () -> Sock.exchange t bad));
  Sock.close t

(* Draining down to a single survivor still works; killing the last one
   has nowhere left to go and fails structurally. *)
let test_drain_exhaustion_fails () =
  let n = 6 in
  let t = Sock.create ~shards:2 ~policy:Shard.Drain ~timeout:10.0 n in
  let out = all_to_all n in
  let reference, _ = M.deliver ~n ~width:2 out in
  kill_shard t 0;
  Alcotest.check inboxes_t "single survivor delivers" reference
    (Sock.exchange t out);
  Alcotest.(check int) "one live worker" 1 (Sock.live_workers t);
  kill_shard t 1;
  (match Sock.exchange t out with
  | _ -> Alcotest.fail "no survivor left: must raise"
  | exception Shard.Shard_down { during; _ } ->
    Alcotest.(check string) "down during the exchange" "exchange" during);
  Sock.close t

(* ------------------------------------------------------------ heartbeat *)

let test_heartbeat_probes_and_recovers () =
  let n = 6 in
  let t =
    Sock.create ~shards:2 ~policy:Shard.Respawn ~timeout:10.0 ~backoff:0.05 n
  in
  Sock.heartbeat t;
  Alcotest.(check int) "both workers probed" 2 (stat "shard.heartbeat.sent" t);
  Alcotest.(check int) "both acked" 2 (stat "shard.heartbeat.acked" t);
  Alcotest.(check int) "none missed" 0 (stat "shard.heartbeat.missed" t);
  let rounds_before = Sock.rounds t in
  kill_shard t 0;
  Sock.heartbeat t;
  Alcotest.(check bool) "missed heartbeat detected" true
    (stat "shard.heartbeat.missed" t >= 1);
  Alcotest.(check bool) "dead worker respawned" true
    (stat "shard.respawn" t >= 1);
  Alcotest.(check int) "idle recovery charges no round" rounds_before
    (Sock.rounds t);
  Alcotest.(check int) "and no recovery round" 0 (Sock.recovery_rounds t);
  let out = all_to_all n in
  let reference, _ = M.deliver ~n ~width:2 out in
  Alcotest.check inboxes_t "session intact after heartbeat recovery"
    reference (Sock.exchange t out);
  Sock.close t

(* A stopped (not dead) worker: its peers wait on the mesh for its
   frames. Workers must wait with the session's timeout, not their own
   environment's, so that they report the silent peer before the
   coordinator's reply deadline ([2·timeout + 1]) runs out and only the
   stopped shard is recovered, once. 3 s leaves a slow exec on a loaded
   runner a wide margin, and is still far below the 30 s a worker reads
   from an unset CC_SHARD_TIMEOUT. *)
let test_stopped_worker policy () =
  let n = 9 in
  let t = Sock.create ~shards:3 ~policy ~timeout:3.0 ~backoff:0.05 n in
  let out = all_to_all n in
  let reference, _ = M.deliver ~n ~width:2 out in
  let victim = List.nth (Sock.pids t) 1 in
  Fun.protect
    ~finally:(fun () -> Sock.close t)
    (fun () ->
      Unix.kill victim Sys.sigstop;
      Alcotest.check inboxes_t "recovered round equals Mailbox.deliver"
        reference (Sock.exchange t out);
      Alcotest.(check int) "one shard lost" 1 (stat "shard.deaths" t);
      match policy with
      | Shard.Drain ->
        Alcotest.(check int) "only the stopped shard drained" 1
          (stat "shard.drain" t);
        Alcotest.(check int) "two survivors" 2 (Sock.live_workers t)
      | _ ->
        Alcotest.(check int) "one respawn for one stopped worker" 1
          (stat "shard.respawn" t);
        Alcotest.(check int) "three live workers" 3 (Sock.live_workers t))

(* ---------------------------------------------------- bootstrap bounds *)

(* The bootstrap-hang regression: a client that connects to the
   rendezvous but never sends its hello. The coordinator must give up at
   the timeout with a structured round-0 Shard_down — before supervision
   it blocked forever in the hello read. *)
let test_mute_client_bootstrap_timeout () =
  let port = ephemeral_port () in
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  let mute = spawn_with_env [ "CC_TEST_MUTE_CLIENT=" ^ addr ] in
  Fun.protect
    ~finally:(fun () -> reap mute)
    (fun () ->
      (* one reserved remote slot that never joins: the mute connection is
         the only rendezvous traffic, so the hello wait must expire *)
      let t0 = Unix.gettimeofday () in
      match Sock.create ~shards:2 ~remote:1 ~addr ~timeout:2.0 6 with
      | t ->
        Sock.close t;
        Alcotest.fail "bootstrap must not succeed without the remote worker"
      | exception Shard.Shard_down { round; during; _ } ->
        Alcotest.(check string) "failed in the hello rendezvous" "hello"
          during;
        Alcotest.(check int) "at round zero" 0 round;
        Alcotest.(check bool) "after the timeout, not immediately" true
          (Unix.gettimeofday () -. t0 >= 1.5);
        Alcotest.(check bool) "bounded well under the watchdog" true
          (Unix.gettimeofday () -. t0 < 30.0))

(* Whether this process still has a running child; zombies found on the
   way are reaped. *)
let rec live_child () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | 0, _ -> true
  | _ -> live_child ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* A hello whose payload does not decode is a failed hello: bootstrap ends
   in the structured round-0 Shard_down and reaps the worker it spawned.
   The mesh address here announces [max_int - 3] bytes, a length near the
   top of the int range, where a naive bounds check wraps around. *)
let test_bad_hello_reaped () =
  let port = ephemeral_port () in
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  let fake = spawn_with_env [ "CC_TEST_BAD_HELLO=" ^ addr ] in
  let outcome =
    Fun.protect
      ~finally:(fun () -> reap fake)
      (fun () ->
        match Sock.create ~shards:2 ~remote:1 ~addr ~timeout:3.0 4 with
        | t ->
          Sock.close t;
          None
        | exception Shard.Shard_down { during; _ } -> Some during)
  in
  Alcotest.(check (option string)) "failed in the hello rendezvous"
    (Some "hello") outcome;
  Alcotest.(check bool) "no child left running" false (live_child ())

(* ------------------------------------------------------- remote workers *)

(* A remote worker is any process dialing the TCP rendezvous: here the
   test binary itself, diverted by CC_TEST_REMOTE_WORKER into
   [Socket.remote_worker] exactly as bin/cc_worker is. One of the two
   shards runs in that process; the session must behave identically to
   an all-local one. *)
let test_remote_worker_joins () =
  let port = ephemeral_port () in
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  let remote =
    spawn_with_env [ "CC_TEST_REMOTE_WORKER=tcp:" ^ addr ]
  in
  Fun.protect
    ~finally:(fun () -> reap remote)
    (fun () ->
      let n = 8 in
      let t = Sock.create ~shards:2 ~remote:1 ~addr ~timeout:10.0 n in
      Alcotest.(check (list int)) "remote slot has no local pid"
        [ -1 ]
        (List.filteri (fun i _ -> i = 1) (Sock.pids t));
      let out = all_to_all n in
      let expected, _ = M.deliver ~n ~width:2 out in
      Alcotest.check inboxes_t "mixed local/remote parity" expected
        (Sock.exchange t out);
      let values = Array.init n (fun v -> [| v; v * 3 |]) in
      Alcotest.(check (array (array int))) "mixed broadcast parity"
        (fst (M.broadcast ~n ~width:2 values))
        (Sock.broadcast t values);
      Sock.close t)

(* The mesh address in a hello is the peer's word — over TCP, any host
   that reaches the rendezvous can send one — so the coordinator must
   never remove it. A remote worker reports a plain file here; the file
   must outlive the session, over either kind of rendezvous. *)
let test_reported_mesh_path_kept addr () =
  let file = Filename.temp_file "cc-decoy" ".keep" in
  let fake =
    spawn_with_env
      [ "CC_TEST_FOREIGN_MESH=" ^ file; "CC_TEST_RENDEZVOUS=" ^ addr ]
  in
  Fun.protect
    ~finally:(fun () ->
      reap fake;
      try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let t = Sock.create ~shards:1 ~remote:1 ~addr ~timeout:10.0 2 in
      Alcotest.(check (list int)) "the only slot is remote" [ -1 ]
        (Sock.pids t);
      Sock.close t;
      Alcotest.(check bool) "reported file left in place" true
        (Sys.file_exists file))

(* A worker's reply is decoded like any untrusted payload: one announcing
   -1 slices, or naming a slot that does not exist as dead, is a dead
   worker (under policy fail, a Shard_down), never an exception out of
   the decoder. *)
let test_bad_reply_is_dead_worker what () =
  let addr = Printf.sprintf "127.0.0.1:%d" (ephemeral_port ()) in
  let fake =
    spawn_with_env [ "CC_TEST_BAD_REPLY=" ^ what; "CC_TEST_RENDEZVOUS=" ^ addr ]
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> reap fake)
      (fun () ->
        let t =
          Sock.create ~shards:1 ~remote:1 ~addr ~policy:Shard.Fail
            ~timeout:10.0 2
        in
        Fun.protect
          ~finally:(fun () -> Sock.close t)
          (fun () ->
            match Sock.exchange t (all_to_all 2) with
            | _ -> "delivered"
            | exception Shard.Shard_down { during; _ } ->
              "Shard_down during " ^ during
            | exception e -> Printexc.to_string e))
  in
  Alcotest.(check string) (what ^ ": the worker is dead")
    "Shard_down during exchange" outcome

(* ------------------------------------------------------ address legs *)

(* The rendezvous address takes Wire.Link's grammar: bare HOST:PORT,
   tcp:HOST:PORT or unix:PATH. *)
let test_addr_leg addr () =
  let n = 6 in
  let t = Sock.create ~shards:2 ~addr n in
  let out = all_to_all n in
  let expected, _ = M.deliver ~n ~width:2 out in
  Alcotest.check inboxes_t (addr ^ ": inboxes parity") expected (Sock.exchange t out);
  let values = Array.init n (fun v -> [| v; v * v |]) in
  Alcotest.(check (array (array int))) (addr ^ ": broadcast parity")
    (fst (M.broadcast ~n ~width:2 values))
    (Sock.broadcast t values);
  let msgs = [ (0, 5, [| 3 |]); (4, 1, [| 9; 9 |]) ] in
  let expected, _, batches = M.route ~n ~width:2 msgs in
  Alcotest.check inboxes_t (addr ^ ": route parity") expected (Sock.route t msgs);
  Alcotest.(check int) "route rounds charged identically"
    (1 + Runtime.Cost.broadcast_rounds
    + (batches * Runtime.Cost.lenzen_routing_rounds))
    (Sock.rounds t);
  Sock.close t

(* ------------------------------------------------- fault composition *)

let chaos_schedule =
  S.create ~seed:23
    [ S.rule S.Drop 0.15; S.rule S.Corrupt 0.15; S.rule S.Stall 0.05 ]

(* Fault.Inject.Make over the sharded transport must inject exactly what
   it injects over the in-process kernel: same counts, same event log. *)
let test_fault_injection_composes () =
  let n = 10 in
  let module FSim = Fault.Inject.Make (Clique.Sim) in
  let drive exchange injected events rounds =
    for r = 1 to 5 do
      ignore (exchange (Array.init n (fun v -> [ ((v + r) mod n, [| v; r |]) ])))
    done;
    (injected (), events (), rounds ())
  in
  let sim = Clique.Sim.create ~kernel:Clique.Sim.Arena n in
  let ftr = FSim.inject ~schedule:chaos_schedule sim in
  let ref_run =
    drive (FSim.exchange ftr)
      (fun () -> FSim.injected ftr)
      (fun () ->
        List.map (Format.asprintf "%a" Fault.Inject.pp_event) (FSim.events ftr))
      (fun () -> FSim.rounds ftr)
  in
  let sock = Sock.create ~shards:2 n in
  let str = FSock.inject ~schedule:chaos_schedule sock in
  let got =
    drive (FSock.exchange str)
      (fun () -> FSock.injected str)
      (fun () ->
        List.map (Format.asprintf "%a" Fault.Inject.pp_event) (FSock.events str))
      (fun () -> FSock.rounds str)
  in
  Sock.close sock;
  let counts (c, _, _) = c and events (_, e, _) = e and rounds (_, _, r) = r in
  Alcotest.(check (list (pair string int)))
    "same injected counts" (counts ref_run) (counts got);
  Alcotest.(check (list string)) "same event log" (events ref_run) (events got);
  Alcotest.(check int) "same rounds" (rounds ref_run) (rounds got)

(* ----------------------------------------------------------- lifecycle *)

let test_shutdown_all () =
  let a = Sock.create ~shards:2 6 in
  let b = Sock.create ~shards:3 6 in
  ignore (Sock.exchange a (all_to_all 6));
  Sock.shutdown_all ();
  List.iter
    (fun t ->
      match Sock.exchange t (all_to_all 6) with
      | _ -> Alcotest.fail "closed session must refuse work"
      | exception Shard.Shard_down _ -> ())
    [ a; b ]

let test_shards_clamped () =
  let t = Sock.create ~shards:7 3 in
  Alcotest.(check int) "shards clamped to n" 3 (Sock.shards t);
  Alcotest.(check int) "one pid per shard" 3 (List.length (Sock.pids t));
  let out = all_to_all 3 in
  let expected, _ = M.deliver ~n:3 ~width:2 out in
  Alcotest.check inboxes_t "clamped session delivers" expected
    (Sock.exchange t out);
  Sock.close t

(* A runtime built for one call closes its session when the call ends.
   Under the Shard kernel, every pipeline below builds per-call runtimes
   (Borůvka's, and Euler's per-iteration Cole–Vishkin one inside
   orientation and maxflow's rounding); the charged layers build none.
   Each leaked session would hold its rendezvous, links and workers, so
   the coordinator's descriptor count must end where it started. *)
let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_per_call_sessions_closed () =
  if not (Sys.file_exists "/proc/self/fd") then ()
  else begin
    Runtime.Config.with_
      {
        (Runtime.Config.get ()) with
        Runtime.Config.kernel = Some Clique.Sim.Shard;
        shards = 2;
      }
      (fun () ->
        let before = open_fds () in
        let g = Gen.connected_gnp ~seed:3L 24 0.3 in
        let b = Array.init 24 (fun i -> float_of_int (i mod 5) -. 2.) in
        let p = Laplacian.Solver.prepare g in
        ignore (Laplacian.Solver.solve_prepared p b);
        ignore (Sparsify.Spectral.sparsify g);
        let net = Gen.layered_network ~seed:13L 3 3 4 in
        let mf = Maxflow_ipm.max_flow net ~s:0 ~t:(Digraph.n net - 1) in
        Alcotest.(check bool) "maxflow ran its rounding" true
          (List.assoc "rounding" mf.Maxflow_ipm.phase_rounds > 0);
        for seed = 1 to 3 do
          ignore
            (Clique.Boruvka.minimum_spanning_tree
               (Gen.connected_gnp ~seed:(Int64.of_int seed) 16 0.3))
        done;
        let o = Euler.Orientation.orient (Gen.cycle_union ~seed:5L 32 3) in
        Alcotest.(check bool) "orientation contracted" true
          (o.Euler.Orientation.iterations > 1);
        Alcotest.(check int) "descriptors after per-call runtimes" before
          (open_fds ()))
  end

(* Every Unix-domain session names its rendezvous and its workers' mesh
   sockets cc-wire-<pid>-… (pid zero-padded to 7 digits); once the
   session is closed none may be left in the temp directory — the
   coordinator removes its spawned workers' files, since it may SIGKILL
   them before they could. *)
let our_socket_files () =
  let prefix = Printf.sprintf "cc-wire-%07d-" (Unix.getpid ()) in
  List.filter
    (String.starts_with ~prefix)
    (Array.to_list (Sys.readdir (Filename.get_temp_dir_name ())))

let test_no_socket_files_left () =
  let t = Sock.create ~shards:2 6 in
  ignore (Sock.exchange t (all_to_all 6));
  Alcotest.(check bool) "a live session has its socket files" true
    (our_socket_files () <> []);
  Sock.close t;
  Alcotest.(check (list string)) "no socket file left" [] (our_socket_files ());
  let t = Sock.create ~shards:2 6 in
  Unix.kill (List.nth (Sock.pids t) 1) Sys.sigkill;
  Sock.close t;
  Alcotest.(check (list string)) "none left by a SIGKILLed worker" []
    (our_socket_files ())

(* The socket inodes ("socket:[N]") process [pid] holds above fd 2. *)
let sockets_above_stdio pid =
  let dir = Printf.sprintf "/proc/%s/fd" pid in
  List.filter_map
    (fun fd ->
      match (int_of_string_opt fd, Unix.readlink (Filename.concat dir fd)) with
      | Some k, target
        when k > 2 && String.starts_with ~prefix:"socket:" target ->
        Some target
      | _ -> None
      | exception Unix.Unix_error _ -> None)
    (Array.to_list (Sys.readdir dir))

(* Workers are re-exec'd, so a descriptor the coordinator opened without
   close-on-exec lives on in each of them: the rendezvous listener in
   every worker, and the coordinator's links to its siblings in a
   respawned one, which then keeps those links open after their peers
   die. *)
let test_workers_hold_no_coordinator_socket () =
  if not (Sys.file_exists "/proc/self/fd") then ()
  else begin
    let n = 9 in
    let t =
      Sock.create ~shards:3 ~policy:Shard.Respawn ~timeout:10.0 ~backoff:0.05
        n
    in
    let check what =
      let mine = sockets_above_stdio "self" in
      List.iter
        (fun pid ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: worker %d holds no coordinator socket" what
               pid)
            []
            (List.filter
               (fun s -> List.mem s mine)
               (sockets_above_stdio (string_of_int pid))))
        (Sock.pids t)
    in
    check "after create";
    kill_shard t 1;
    ignore (Sock.exchange t (all_to_all n));
    Alcotest.(check int) "one respawn" 1 (stat "shard.respawn" t);
    check "after a respawn";
    Sock.close t
  end

(* Closing a session whose worker is stopped: the worker never acts on
   Shutdown, so [close] must give up on it at the session timeout, kill
   and reap it, and still remove every socket file. A watchdog of its own
   SIGKILLs the family if [close] is still blocked well past that bound,
   so an unbounded wait fails this test instead of hanging the suite; the
   suite's watchdog is re-armed afterwards. *)
let test_close_stopped_worker () =
  let t = Sock.create ~shards:2 ~timeout:1.0 6 in
  ignore (Sock.exchange t (all_to_all 6));
  let pids = Sock.pids t in
  Unix.kill (List.nth pids 1) Sys.sigstop;
  let fired = ref false in
  let suite_watchdog =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           fired := true;
           List.iter
             (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
             pids))
  in
  let left = Unix.alarm 8 in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm suite_watchdog;
      ignore (Unix.alarm (max 1 (left - 8))))
    (fun () -> Sock.close t);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "close returned before the watchdog" false !fired;
  Alcotest.(check bool)
    (Printf.sprintf "close took %.2f s, bound is the 1 s timeout + 3 s"
       elapsed)
    true (elapsed < 4.0);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "worker %d reaped" p)
        true
        (match Unix.waitpid [ Unix.WNOHANG ] p with
        | _ -> false
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true))
    pids;
  Alcotest.(check (list string)) "no socket file left" []
    (our_socket_files ())

let () =
  Alcotest.run "socket"
    [
      ( "coalescing",
        [
          Alcotest.test_case "all-to-all: one mesh frame per pair" `Quick
            test_coalescing_all_to_all;
          Alcotest.test_case "no cross traffic: no mesh frames" `Quick
            test_coalescing_no_cross_traffic;
        ] );
      ( "errors",
        [
          Alcotest.test_case "width/range errors identical across processes"
            `Quick test_width_error_across_processes;
          Alcotest.test_case "worker death surfaces as Shard_down" `Quick
            test_worker_death_surfaces;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "respawn: certified bit-identical recovery"
            `Quick test_respawn_bit_identical;
          Alcotest.test_case "drain: degraded continuation" `Quick
            test_drain_continues_degraded;
          Alcotest.test_case "drain: last survivor fails structurally" `Quick
            test_drain_exhaustion_fails;
          Alcotest.test_case "heartbeat probes and recovers" `Quick
            test_heartbeat_probes_and_recovers;
          Alcotest.test_case "drain: stopped worker drained alone" `Quick
            (test_stopped_worker Shard.Drain);
          Alcotest.test_case "respawn: stopped worker respawned once" `Quick
            (test_stopped_worker Shard.Respawn);
          Alcotest.test_case "mute client cannot hang bootstrap" `Quick
            test_mute_client_bootstrap_timeout;
          Alcotest.test_case "undecodable hello reaps its workers" `Quick
            test_bad_hello_reaped;
          Alcotest.test_case "remote worker joins the rendezvous" `Quick
            test_remote_worker_joins;
          Alcotest.test_case "tcp: reported mesh path never removed" `Quick
            (fun () ->
              test_reported_mesh_path_kept
                (Printf.sprintf "127.0.0.1:%d" (ephemeral_port ()))
                ());
          Alcotest.test_case "unix: reported mesh path never removed" `Quick
            (test_reported_mesh_path_kept
               ("unix:"
               ^ Filename.concat
                   (Filename.get_temp_dir_name ())
                   (Printf.sprintf "cc-wire-%d-rendezvous" (Unix.getpid ()))));
          Alcotest.test_case "reply of -1 slices is a dead worker" `Quick
            (test_bad_reply_is_dead_worker "slices");
          Alcotest.test_case "peer-down naming no slot is a dead worker"
            `Quick
            (test_bad_reply_is_dead_worker "peer");
        ] );
      ( "transports",
        [
          Alcotest.test_case "tcp leg parity" `Quick
            (test_addr_leg "127.0.0.1:0");
          Alcotest.test_case "tcp: address leg parity" `Quick
            (test_addr_leg "tcp:127.0.0.1:0");
          Alcotest.test_case "unix: address leg parity" `Quick
            (test_addr_leg
               ("unix:"
               ^ Filename.concat
                   (Filename.get_temp_dir_name ())
                   (Printf.sprintf "cc-wire-%d-explicit" (Unix.getpid ()))));
          Alcotest.test_case "fault injection composes bit-identically" `Quick
            test_fault_injection_composes;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown_all closes every session" `Quick
            test_shutdown_all;
          Alcotest.test_case "shards clamp to n" `Quick test_shards_clamped;
          Alcotest.test_case "per-call runtimes close their sessions" `Quick
            test_per_call_sessions_closed;
          Alcotest.test_case "no socket file left after close" `Quick
            test_no_socket_files_left;
          Alcotest.test_case "close bounded on a stopped worker" `Quick
            test_close_stopped_worker;
          Alcotest.test_case "workers hold no coordinator socket" `Quick
            test_workers_hold_no_coordinator_socket;
        ] );
    ]
