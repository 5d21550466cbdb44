(* The multi-process clique's coordinator: it drives CC_SHARDS worker
   processes over framed sockets (DESIGN.md §11, §14). Workers are
   re-execs of the current binary — OCaml 5 forbids [Unix.fork] in any
   process that ever spawned a domain, and the coordinator's domain pools
   must stay usable — diverted into [Socket_worker] by this module's
   initializer when [CC_SHARD_WORKER] is present, or externally-launched
   remote processes ([bin/cc_worker]) dialing the coordinator's
   rendezvous. Partitioning, ordering, and error selection live in
   [Runtime.Shard]; framing, links and the address grammar in [Wire]; the
   frame kinds and payload layouts in [Socket_protocol], which also draws
   the round.

   Every round is one frame per (coordinator, worker) direction plus at
   most one frame per ordered (shard, shard) pair with cross traffic —
   the shard-level analogue of Lenzen batching. Results are bit-identical
   to the in-process kernels: same inbox contents and order, same errors
   at the same message, same sanitizer transcripts (those are computed
   from outboxes above the transport).

   Supervision (DESIGN.md §14): every blocking wait is bounded by the
   session timeout (CC_SHARD_TIMEOUT or [?timeout], carried to the workers
   in every Config), every frame carries the session epoch, and a worker
   death — EOF, a read/write timeout, or a PeerDown report from a
   survivor's mesh — is handled per CC_SHARD_POLICY. [Fail] raises
   [Runtime.Shard.Shard_down] as before. [Respawn] kills and replaces the
   dead worker (exponential backoff, at most 3 attempts), bumps the epoch,
   rebuilds the entire mesh with fresh sockets via a Config round — which
   also discards any half-written frames of the aborted round — and
   replays the interrupted operation from its retained input (the
   operation's own argument: arena delivery is stateless across rounds,
   so the replay is bit-identical). [Drain] marks the shard dead, merges
   its node range into a surviving neighbour (epoch-versioned
   [Shard.Partition]), reconfigures, and replays degraded. Frames from a
   dead incarnation carry a stale epoch and are skipped on receipt, never
   mistaken for current traffic. The aborted attempt is charged one round
   to the transport's [recovery_rounds] counter, which [Runtime.Make]
   routes to the "recovery" ledger phase. *)

module Frame = Wire.Frame
module Link = Wire.Link
module P = Socket_protocol
module Shard = Runtime.Shard
module Mailbox = Runtime.Mailbox

let default_width = 2

let unicast = true

(* ------------------------------------------------------ the coordinator *)

type state = Live | Down of int * string | Closed

type t = {
  n : int;
  k : int;
  rendezvous : Link.address;  (** as bound, TCP port resolved *)
  lfd : Unix.file_descr;  (** stays open: respawns and remote joins dial it *)
  policy : Shard.policy;
  timeout : float;
  remote : int;  (** slots [k - remote, k) are externally launched *)
  log : out_channel option;
  mutable part : Shard.Partition.t;
  mutable owner : int array;
  links : Link.t option array;
  addrs : string array;  (** mesh addresses from the hellos *)
  pids : int array;  (** -1 = remote or reaped *)
  mutable seq : int;
  mutable rounds : int;
  mutable recovery_rounds : int;
  mutable words_sent : int;
  mutable peer_bytes_sent : int;
  mutable peer_bytes_recv : int;
  mutable peer_frames : int;
  mutable crossings : int;
  mutable respawns : int;
  mutable drains : int;
  mutable deaths : int;
  mutable hb_sent : int;
  mutable hb_acked : int;
  mutable hb_missed : int;
  mutable state : state;
}

(* Worker deaths detected mid-operation; caught only by the supervisor
   loop below, which recovers per policy and replays. *)
exception Dead_workers of int list

exception Bandwidth_exceeded = Mailbox.Bandwidth_exceeded

let n t = t.n

let shards t = t.k

let pids t = Array.to_list t.pids

let rounds t = t.rounds

let recovery_rounds t = t.recovery_rounds

let words_sent t = t.words_sent

let epoch t = Shard.Partition.epoch t.part

let live_workers t = Shard.Partition.live t.part

let logf t fmt =
  Printf.ksprintf
    (fun line ->
      match t.log with
      | None -> ()
      | Some oc ->
        Printf.fprintf oc "[cc-shard %.3f epoch=%d] %s\n%!"
          (Unix.gettimeofday ()) (epoch t) line)
    fmt

(* Coordinator-side session registry. Sessions are created, closed and
   reaped on the coordinator's main domain only — the domain pool fans
   node-step closures, never session lifecycle — so the plain ref is
   race-free by construction (cc_lint L11 markers below record that
   invariant at each write). *)
let live : t list ref = ref []

let sigpipe_ignored = Atomic.make false

(* Reap [pid] once it has exited, polling until [deadline]; a child still
   running then (stopped, wedged, or never told to exit) is SIGKILLed and
   reaped. A past deadline kills at once. *)
let reap_pid ~deadline pid =
  let rec wait pause =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      (try Unix.sleepf pause with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      wait (Float.min (2. *. pause) 0.05)
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pause
    | exception Unix.Unix_error _ -> ()
  in
  wait 0.001

(* Close slot [s]'s link and reap its process by [deadline] (see
   [reap_pid]). A spawned slot of a Unix-domain session also loses its
   mesh socket, at the path its boot derives from the rendezvous: a killed
   worker cannot remove it itself, and a respawn binds the same path
   afresh. The mesh address a hello reports is the peer's word, so the
   coordinator never removes that path; a remote worker removes its
   own. *)
let reap_slot t ~deadline s =
  (match t.links.(s) with
  | Some l ->
    Link.close l;
    t.links.(s) <- None
  | None -> ());
  if t.pids.(s) > 0 then begin
    reap_pid ~deadline t.pids.(s);
    t.pids.(s) <- -1
  end;
  match t.rendezvous with
  | Link.Unix_socket path when s < t.k - t.remote ->
    Link.unlink (Socket_worker.spawned_mesh path s)
  | Link.Unix_socket _ | Link.Tcp _ -> ()

let reap_all t ~deadline =
  for s = 0 to t.k - 1 do
    reap_slot t ~deadline s
  done;
  (try Unix.close t.lfd with Unix.Unix_error _ -> ());
  Link.unlink t.rendezvous

let close_log t = Option.iter close_out_noerr t.log

let close t =
  match t.state with
  | Closed -> ()
  | (Live | Down _) as was ->
    t.state <- Closed;
    live := List.filter (fun s -> s != t) !live; (* cc_lint: allow L11 — main-domain-only session registry *)
    if was = Live then begin
      (* Workers exit on Shutdown. One that has not by the session
         timeout (stopped, wedged, or not reading, so that its Shutdown
         could not be written) is killed: one deadline bounds the sends
         and the reaping, so closing takes about one timeout at most. *)
      let deadline = Unix.gettimeofday () +. t.timeout in
      Array.iter
        (function
          | Some l -> (
            try
              Link.send ~deadline l
                { Frame.kind = P.k_shutdown; src = -1; dst = 0; seq = 0;
                  epoch = epoch t; payload = Bytes.empty }
            with Link.Closed _ | Link.Timeout _ | Unix.Unix_error _ -> ())
          | None -> ())
        t.links;
      reap_all t ~deadline
    end;
    close_log t

let shutdown_all () = List.iter close !live

let exit_hook_registered = Atomic.make false

(* Recovery failed, the policy is fail-stop, or bootstrap failed (round
   0): kill and reap the whole family, then surface the structured error —
   callers never hang on a dead shard. *)
let session_down t ~shard ~during =
  logf t "session down: shard %d during %s" shard during;
  t.state <- Down (shard, during);
  reap_all t ~deadline:neg_infinity;
  close_log t;
  raise (Shard.Shard_down { shard; round = t.rounds; during })

let ensure_live t during =
  match t.state with
  | Live -> ()
  | Down (shard, _) ->
    raise (Shard.Shard_down { shard; round = t.rounds; during })
  | Closed -> raise (Shard.Shard_down { shard = -1; round = t.rounds; during })

(* The environment of a spawned worker: the parent's, with the worker spec
   pinned. *)
let child_env spec =
  let var = "CC_SHARD_WORKER" in
  Array.of_list
    (List.filter
       (fun e -> not (String.starts_with ~prefix:(var ^ "=") e))
       (Array.to_list (Unix.environment ()))
    @ [ Printf.sprintf "%s=%s" var spec ])

let spawn_worker t ~epoch s =
  Unix.create_process_env Sys.executable_name [| Sys.executable_name |]
    (child_env
       (P.spec_to_string
          { assign = { slot = s; shards = t.k; n = t.n; epoch };
            domains = Runtime.Pool.default_domains ();
            rendezvous = Link.to_string t.rendezvous }))
    Unix.stdin Unix.stdout Unix.stderr

let session_counter = ref 0

(* -------------------------------------------- coordinator-side protocol *)

(* Read the next current-epoch frame from slot [s]: frames stamped with an
   older epoch are late traffic from before a recovery event — skipped,
   never interpreted. *)
let rec recv_current t ~deadline s =
  let l = match t.links.(s) with Some l -> l | None -> assert false in
  let f = Link.recv ~deadline l in
  if f.Frame.epoch < epoch t then recv_current t ~deadline s else f

let config_payload t =
  P.encode_config
    { epoch = epoch t; timeout = t.timeout;
      members =
        Array.init t.k (fun s ->
            let lo, hi = Shard.Partition.bounds t.part s in
            { P.alive = Shard.Partition.alive t.part s; lo; hi;
              mesh_addr = t.addrs.(s) }) }

(* Ask every live worker once: send one [kind] frame to each live slot
   under the session deadline, then — if every send went out — read one
   current-epoch reply per slot, which must be [reply] with the same
   [seq]. Workers stuck in an aborted round's mesh only read the request
   after their own mesh timeout fires, so the replies get
   [2·timeout + 1]. Returns the number of frames sent, the number of good
   replies, and the slots that failed (sorted) — newly dead, for the
   caller's policy loop. *)
let ask_live t ~kind ~reply ~seq payload =
  let e = epoch t in
  let lives = Shard.Partition.live_list t.part in
  let sent = ref 0 and replied = ref 0 and failed = ref [] in
  List.iter
    (fun s ->
      match t.links.(s) with
      | None -> failed := s :: !failed
      | Some l -> (
        incr sent;
        match
          Link.send
            ~deadline:(Unix.gettimeofday () +. t.timeout)
            l
            { Frame.kind; src = -1; dst = s; seq; epoch = e; payload }
        with
        | () -> ()
        | exception (Link.Closed _ | Link.Timeout _) ->
          failed := s :: !failed))
    lives;
  if !failed = [] then begin
    let deadline = Unix.gettimeofday () +. (2.0 *. t.timeout) +. 1.0 in
    List.iter
      (fun s ->
        match recv_current t ~deadline s with
        | exception (Link.Closed _ | Link.Timeout _ | Frame.Malformed _) ->
          failed := s :: !failed
        | f ->
          if f.Frame.kind = reply && f.Frame.seq = seq then incr replied
          else failed := s :: !failed)
      lives
  end;
  (!sent, !replied, List.sort_uniq compare !failed)

(* Push the current partition to every live worker and await their Ready
   frames. Returns the slots that failed to confirm. *)
let reconfig t =
  let _, _, failed =
    ask_live t ~kind:P.k_config ~reply:P.k_ready ~seq:0 (config_payload t)
  in
  failed

(* Await hello frames (and assign remote slots) for the slot set [want] on
   the session listener. Used both at bootstrap and by respawn. Raises
   [Dead_workers] naming the still-missing slots on any failure — the
   caller cleans up or retries. The per-connection recv is bounded too: a
   client that connects but never sends its hello cannot wedge the
   rendezvous (it burns at most the remaining deadline, then fails it).
   The mesh address is decoded with the frame, so a hello whose payload
   does not decode, or whose address does not parse, is a failed hello
   like any other. *)
let await_hellos t ~deadline want =
  let missing = ref want in
  let fail () = raise (Dead_workers !missing) in
  let dead_child () =
    List.exists
      (fun s ->
        t.pids.(s) > 0
        &&
        match Unix.waitpid [ Unix.WNOHANG ] t.pids.(s) with
        | 0, _ -> false
        | _ -> true
        | exception Unix.Unix_error _ -> true)
      !missing
  in
  while !missing <> [] do
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then fail ();
    match Unix.select [ t.lfd ] [] [] (Float.min remaining 0.25) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> if dead_child () then fail ()
    | _ :: _, _, _ -> (
      let l =
        Link.of_fd ~peer:"worker"
          (Link.accept ~tcp_nodelay:(Link.is_tcp t.rendezvous) t.lfd)
      in
      match
        let h = Link.recv ~deadline l in
        (h, P.decode_hello h.Frame.payload)
      with
      | exception (Link.Closed _ | Frame.Malformed _ | Link.Timeout _ as e) ->
        (* a worker from another build fails here as an unsupported
           format version; the log names it *)
        logf t "rendezvous: hello failed: %s" (Printexc.to_string e);
        Link.close l;
        fail ()
      | h, mesh_addr ->
        let accept_slot s =
          t.addrs.(s) <- mesh_addr;
          t.links.(s) <- Some l;
          missing := List.filter (fun u -> u <> s) !missing
        in
        if
          h.Frame.kind = P.k_hello
          && h.Frame.src >= 0
          && h.Frame.src < t.k - t.remote
          && List.mem h.Frame.src !missing
        then accept_slot h.Frame.src
        else if h.Frame.kind = P.k_hello && h.Frame.src = -1 then begin
          (* an external worker: assign the lowest waiting remote slot *)
          match List.filter (fun s -> s >= t.k - t.remote) !missing with
          | [] ->
            Link.close l;
            fail ()
          | s :: _ -> (
            let payload =
              P.encode_assign
                { slot = s; shards = t.k; n = t.n; epoch = epoch t }
            in
            match
              Link.send ~deadline l
                { Frame.kind = P.k_assign; src = -1; dst = s; seq = 0;
                  epoch = epoch t; payload }
            with
            | () -> accept_slot s
            | exception (Link.Closed _ | Link.Timeout _) ->
              Link.close l;
              fail ())
        end
        else begin
          Link.close l;
          fail ()
        end)
  done

(* ------------------------------------------------------------- recovery *)

(* Respawn attempts per death before the session goes down, and the
   pause before the second, doubled before each later one. *)
let max_respawns = 3

let respawn_backoff = 0.2

(* Policy-driven recovery from the death of [dead] workers. On return the
   session is reconfigured at a fresh epoch and the interrupted operation
   can be replayed; on failure the session is down (raises Shard_down). *)
let rec recover t ~during dead =
  let dead =
    List.sort_uniq compare
      (List.filter (fun s -> Shard.Partition.alive t.part s) dead)
  in
  match dead with
  | [] -> ()
  | first :: _ -> (
    t.deaths <- t.deaths + List.length dead;
    logf t "worker death: shards [%s] during %s (policy %s)"
      (String.concat "," (List.map string_of_int dead))
      during
      (Shard.policy_to_string t.policy);
    match t.policy with
    | Shard.Fail -> session_down t ~shard:first ~during
    | Shard.Drain ->
      List.iter (reap_slot t ~deadline:neg_infinity) dead;
      let part =
        List.fold_left
          (fun p d ->
            match Shard.Partition.drain p d with
            | p -> p
            | exception Invalid_argument _ ->
              session_down t ~shard:d ~during)
          t.part dead
      in
      t.part <- part;
      t.owner <- Shard.Partition.owners part;
      t.drains <- t.drains + List.length dead;
      logf t "drained shards [%s]; %d live"
        (String.concat "," (List.map string_of_int dead))
        (Shard.Partition.live t.part);
      (match reconfig t with
      | [] -> ()
      | newly -> recover t ~during newly)
    | Shard.Respawn -> respawn_loop t ~during dead 0)

and respawn_loop t ~during dead attempt =
  match dead with
  | [] -> ()
  | first :: _ ->
    if attempt > max_respawns then begin
      logf t "respawn attempts exhausted for shards [%s]"
        (String.concat "," (List.map string_of_int dead));
      session_down t ~shard:first ~during
    end;
    if attempt > 0 then begin
      let pause = respawn_backoff *. (2.0 ** float_of_int (attempt - 1)) in
      logf t "respawn attempt %d for shards [%s], backoff %.3fs" attempt
        (String.concat "," (List.map string_of_int dead))
        pause;
      Unix.sleepf pause
    end;
    List.iter (reap_slot t ~deadline:neg_infinity) dead;
    t.part <- Shard.Partition.bump t.part;
    let e = epoch t in
    List.iter
      (fun s ->
        if s < t.k - t.remote then
          t.pids.(s) <-
            spawn_worker t ~epoch:e s)
      dead;
    let deadline = Unix.gettimeofday () +. t.timeout in
    (match await_hellos t ~deadline dead with
    | () -> (
      t.respawns <- t.respawns + List.length dead;
      logf t "respawned shards [%s]"
        (String.concat "," (List.map string_of_int dead));
      match reconfig t with
      | [] -> ()
      | newly ->
        List.iter (reap_slot t ~deadline:neg_infinity) newly;
        respawn_loop t ~during
          (List.sort_uniq compare (newly @ dead))
          (attempt + 1))
    | exception Dead_workers missing ->
      respawn_loop t ~during
        (List.sort_uniq compare (missing @ dead))
        (attempt + 1))

(* The supervisor: run one operation attempt, and on worker death recover
   per policy, charge the aborted attempt to the recovery counter, and
   replay from the operation's retained input (its argument — nothing
   else carries state across rounds). *)
let rec supervised t ~during attempt =
  ensure_live t during;
  match attempt () with
  | v -> v
  | exception Dead_workers dead ->
    recover t ~during dead;
    t.rounds <- t.rounds + 1;
    t.recovery_rounds <- t.recovery_rounds + 1;
    logf t "replaying %s (round %d charged to recovery)" during t.rounds;
    supervised t ~during attempt

(* ------------------------------------------------------------ heartbeat *)

let heartbeat t =
  ensure_live t "heartbeat";
  t.seq <- t.seq + 1;
  let sent, acked, missed =
    ask_live t ~kind:P.k_heartbeat ~reply:P.k_heartbeat_ack ~seq:t.seq
      Bytes.empty
  in
  t.hb_sent <- t.hb_sent + sent;
  t.hb_acked <- t.hb_acked + acked;
  match missed with
  | [] -> ()
  | d ->
    t.hb_missed <- t.hb_missed + List.length d;
    logf t "heartbeat missed by shards [%s]"
      (String.concat "," (List.map string_of_int d));
    recover t ~during:"heartbeat" d

(* ------------------------------------------------------------- creation *)

let create ?shards:requested ?addr ?remote ?policy ?timeout n =
  if n <= 0 then invalid_arg "Socket.create: need n > 0";
  let c = Runtime.Config.get () in
  let k =
    min (match requested with Some k -> max 1 k | None -> c.shards) n
  in
  if k > 62 then invalid_arg "Socket.create: at most 62 shards";
  let policy = Option.value policy ~default:c.policy in
  let timeout =
    match timeout with
    | Some x when x > 0.0 && x <= Runtime.Config.max_timeout -> x
    | _ -> c.timeout
  in
  let remote =
    min (match remote with Some r -> max 0 r | None -> c.remote) k
  in
  if not (Atomic.exchange sigpipe_ignored true) then
    if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = match addr with Some a -> Some a | None -> c.addr in
  if remote > 0 && addr = None then
    invalid_arg
      "Socket.create: remote workers need a rendezvous address \
       (CC_SHARD_ADDR)";
  let lfd, rendezvous =
    Link.listen
      (match addr with
      | Some a -> Link.address a
      | None ->
        incr session_counter; (* cc_lint: allow L11 — sessions are created on the main domain only *)
        Link.Unix_socket
          (Filename.concat
             (Filename.get_temp_dir_name ())
             (Printf.sprintf "cc-wire-%07d-%06d" (Unix.getpid ())
                !session_counter)))
  in
  let log_oc =
    match c.log with
    | None -> None
    | Some path -> (
      match open_out_gen [ Open_append; Open_creat ] 0o644 path with
      | oc -> Some oc
      | exception Sys_error _ -> None)
  in
  let t =
    {
      n;
      k;
      rendezvous;
      lfd;
      policy;
      timeout;
      remote;
      log = log_oc;
      part = Shard.Partition.create ~shards:k ~n;
      owner = Shard.owners ~shards:k ~n;
      links = Array.make k None;
      addrs = Array.make k "";
      pids = Array.make k (-1);
      seq = 0;
      rounds = 0;
      recovery_rounds = 0;
      words_sent = 0;
      peer_bytes_sent = 0;
      peer_bytes_recv = 0;
      peer_frames = 0;
      crossings = 0;
      respawns = 0;
      drains = 0;
      deaths = 0;
      hb_sent = 0;
      hb_acked = 0;
      hb_missed = 0;
      state = Live;
    }
  in
  logf t "bootstrap: %d shards (%d remote), n=%d, policy=%s, timeout=%.1fs" k
    remote n
    (Shard.policy_to_string policy)
    timeout;
  (try
     for s = 0 to k - remote - 1 do
       t.pids.(s) <- spawn_worker t ~epoch:1 s
     done
   with e ->
     reap_all t ~deadline:neg_infinity;
     close_log t;
     raise e);
  let all = List.init k Fun.id in
  (match await_hellos t ~deadline:(Unix.gettimeofday () +. timeout) all with
  | () -> ()
  | exception Dead_workers missing ->
    session_down t
      ~shard:(match missing with s :: _ -> s | [] -> -1)
      ~during:"hello");
  (match reconfig t with
  | [] -> ()
  | s :: _ -> session_down t ~shard:s ~during:"mesh");
  logf t "bootstrap complete";
  live := t :: !live; (* cc_lint: allow L11 — main-domain-only session registry *)
  if not (Atomic.exchange exit_hook_registered true) then at_exit shutdown_all;
  t

(* ------------------------------------------------------- transport ops *)

type outcome = Ok_inboxes of P.inboxes | Err of Shard.overflow

(* One reply from slot [s]: an outcome, or the slots it implicates as
   dead (itself on EOF/timeout, or on a reply that does not decode; the
   existing slots it names on a PeerDown report, or itself if it names
   none). *)
let collect_reply t ~deadline s =
  match
    let f = recv_current t ~deadline s in
    if f.Frame.kind = P.k_peer_down then begin
      let named =
        List.filter
          (fun u -> u >= 0 && u < t.k)
          (P.decode_peer_down f.Frame.payload)
      in
      `Dead (if named = [] then [ s ] else named)
    end
    else if f.Frame.kind = P.k_error then
      `Out (Err (P.decode_overflow f.Frame.payload))
    else if f.Frame.kind = P.k_inboxes then
      `Out (Ok_inboxes (P.decode_inboxes f.Frame.payload))
    else `Dead [ s ]
  with
  | reply -> reply
  | exception (Link.Closed _ | Link.Timeout _ | Frame.Malformed _) ->
    `Dead [ s ]

let send_to t s frame =
  match t.links.(s) with
  | None -> raise (Dead_workers [ s ])
  | Some l -> (
    match Link.send ~deadline:(Unix.gettimeofday () +. t.timeout) l frame with
    | () -> ()
    | exception (Link.Closed _ | Link.Timeout _) ->
      raise (Dead_workers [ s ]))

(* Of every violation found anywhere — the coordinator's range scan and
   each worker's width scan — the one at the minimal global arrival index
   is the one a single-process walk would have tripped on first. *)
let raise_first_error ~range_error errors =
  let candidates =
    (match range_error with
    | Some (gidx, message) -> [ (gidx, `Range message) ]
    | None -> [])
    @ List.map (fun (o : Shard.overflow) -> (o.gidx, `Width o)) errors
  in
  match List.sort (fun (a, _) (b, _) -> compare a b) candidates with
  | [] -> ()
  | (_, `Range message) :: _ -> invalid_arg message
  | (_, `Width (o : Shard.overflow)) :: _ ->
    Mailbox.bandwidth_exceeded ~src:o.src ~dst:o.dst ~words:o.words
      ~width:o.width

(* Collect one reply per live slot; on any death indication, short-circuit
   into [Dead_workers] (stale replies of the aborted round are skipped by
   the epoch filter after recovery). *)
let collect_all t ~each =
  let lives = Shard.Partition.live_list t.part in
  let deadline = Unix.gettimeofday () +. (2.0 *. t.timeout) +. 1.0 in
  let dead = ref [] in
  List.iter
    (fun s ->
      if !dead = [] then
        match collect_reply t ~deadline s with
        | `Dead d -> dead := d
        | `Out o -> each s o)
    lives;
  if !dead <> [] then raise (Dead_workers !dead)

let exchange ?(width = default_width) t outboxes =
  let attempt () =
    t.seq <- t.seq + 1;
    let e = epoch t in
    let split =
      Shard.split_exchange ~owner:t.owner ~shards:t.k ~n:t.n ~width outboxes
    in
    let lives = Shard.Partition.live_list t.part in
    List.iter
      (fun s ->
        let mask = ref 0 in
        Array.iteri
          (fun u from_u -> if from_u then mask := !mask lor (1 lsl u))
          split.expect.(s);
        let payload =
          P.encode_exchange
            { phase = Mailbox.current_context (); width; expect = !mask;
              msgs = split.by_src_shard.(s) }
        in
        send_to t s
          { Frame.kind = P.k_exchange; src = -1; dst = s; seq = t.seq;
            epoch = e; payload })
      lives;
    let slices = Array.make t.k [||] in
    let errors = ref [] in
    collect_all t ~each:(fun s -> function
      | Ok_inboxes { mesh; slices = sl } ->
        slices.(s) <- sl;
        t.peer_bytes_sent <- t.peer_bytes_sent + mesh.bytes_sent;
        t.peer_bytes_recv <- t.peer_bytes_recv + mesh.bytes_recv;
        t.peer_frames <- t.peer_frames + mesh.frames_sent
      | Err o -> errors := o :: !errors);
    raise_first_error ~range_error:split.range_error !errors;
    let inboxes = Array.make t.n [] in
    List.iter
      (fun s ->
        let lo, _hi = Shard.Partition.bounds t.part s in
        Array.iteri (fun i box -> inboxes.(lo + i) <- box) slices.(s))
      lives;
    t.words_sent <- t.words_sent + split.words;
    t.crossings <- t.crossings + split.crossings;
    t.rounds <- t.rounds + 1;
    inboxes
  in
  supervised t ~during:"exchange" attempt

(* Broadcast and Lenzen routing stay coordinator-side, exactly as on the
   in-process kernels. Workers keep no state across rounds, so a worker
   round trip could only compute [Mailbox.broadcast]'s view, word count
   and width error again; routing's cost model is [⌈load/(n·width)⌉]
   batches either way, and no charged workload drives it through the
   message stream (DESIGN.md §11.3). Neither touches a link, so a dead
   worker is noticed by the next exchange or heartbeat. *)
let broadcast ?(width = default_width) t values =
  ensure_live t "broadcast";
  let view, words = Mailbox.broadcast ~n:t.n ~width values in
  t.words_sent <- t.words_sent + words;
  t.rounds <- t.rounds + Runtime.Cost.broadcast_rounds;
  view

let route ?(width = default_width) t msgs =
  ensure_live t "route";
  let inboxes, words, batches = Mailbox.route ~n:t.n ~width msgs in
  t.words_sent <- t.words_sent + words;
  t.rounds <- t.rounds + (batches * Runtime.Cost.lenzen_routing_rounds);
  inboxes

(* Coordinator traffic on the links open now, plus the mesh traffic the
   workers reported. *)
let stats t =
  let links f =
    Array.fold_left (fun a -> function Some l -> a + f l | None -> a) 0 t.links
  in
  [
    ( "wire.frames",
      links Link.frames_sent + links Link.frames_recv + t.peer_frames );
    ("wire.bytes_sent", links Link.bytes_sent + t.peer_bytes_sent);
    ("wire.bytes_recv", links Link.bytes_recv + t.peer_bytes_recv);
    ("shard.crossings", t.crossings);
    ("shard.shards", t.k);
    ("shard.live", Shard.Partition.live t.part);
    ("shard.epoch", epoch t);
    ("shard.deaths", t.deaths);
    ("shard.respawn", t.respawns);
    ("shard.drain", t.drains);
    ("shard.heartbeat.sent", t.hb_sent);
    ("shard.heartbeat.acked", t.hb_acked);
    ("shard.heartbeat.missed", t.hb_missed);
    ("shard.recovery_rounds", t.recovery_rounds);
  ]

(* --------------------------------------------------- worker diversion *)

let remote_worker addr = Socket_worker.main (Remote addr)

(* Runs at module initialization — i.e. in every executable linking this
   module, before its own entry point. A process spawned by [create]
   carries the worker spec in its environment and never comes back. The
   worker lives in [Socket_worker], which an executable links only
   because this module names it. *)
let () =
  match Sys.getenv_opt "CC_SHARD_WORKER" with
  | Some spec -> Socket_worker.main (Spawned spec)
  | None -> ()
