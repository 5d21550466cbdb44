(* The multi-process clique: a coordinator drives CC_SHARDS worker
   processes over framed sockets (DESIGN.md §11, §14). Workers are
   re-execs of the current binary — OCaml 5 forbids [Unix.fork] in any
   process that ever spawned a domain, and the coordinator's domain pools
   must stay usable — diverted into [worker_main] by this module's
   initializer when [CC_SHARD_WORKER] is present, or externally-launched
   remote processes ([bin/cc_worker]) dialing the coordinator's
   rendezvous.
   Partitioning, ordering, and error selection live in [Runtime.Shard];
   framing, links and the address grammar live in [Wire]; this module is
   the protocol:

     coordinator                     worker s
     -----------                     --------
     bootstrap: accept Hello (or assign a remote slot), then
     Config(epoch, timeout,
            live table)          ->  build the worker mesh
                                 <-  Ready(epoch)
     Exchange(phase,width,expect,
              own-source batch)  ->
                                     batches by dst shard,
                                     one Peer frame per ordered
                                     (s,u) pair with traffic   -> peers
                                     merge + sort by gidx,
                                     arena delivery
                                  <- Inboxes slice | WidthErr | PeerDown

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
module Shard = Runtime.Shard
module Mailbox = Runtime.Mailbox

let default_width = 2

let unicast = true

(* ------------------------------------------------------- frame protocol *)

let k_exchange = 1

let k_peer = 2

let k_inboxes = 3

let k_error = 4

(* Kinds 5 and 6 are retired and never reused: a worker of an older
   build at the same frame version reads them as a broadcast. *)

let k_peer_down = 7

let k_shutdown = 8

let k_hello = 9

let k_config = 10

let k_ready = 11

let k_assign = 12

let k_heartbeat = 13

let k_heartbeat_ack = 14

(* Every count a payload announces is read through [Frame.Reader.count]
   or [ints], so a corrupt or hostile one is [Malformed] before anything
   is allocated for it. *)

let put_msg w (m : Shard.msg) =
  Frame.Writer.int w m.gidx;
  Frame.Writer.int w m.src;
  Frame.Writer.int w m.dst;
  Frame.Writer.ints w m.pay

let get_msg r : Shard.msg =
  let gidx = Frame.Reader.int r in
  let src = Frame.Reader.int r in
  let dst = Frame.Reader.int r in
  { gidx; src; dst; pay = Frame.Reader.ints r }

let put_batch w msgs =
  Frame.Writer.int w (List.length msgs);
  List.iter (put_msg w) msgs

(* [List.init] applies its function left to right. A message takes at
   least its four ints. *)
let get_batch r =
  List.init (Frame.Reader.count r ~bytes:32) (fun _ -> get_msg r)

(* Accept one connection, waiting at most until [deadline]. *)
let accept_deadline ~deadline ~tcp ~peer fd =
  let rec wait () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then raise (Link.Timeout { peer; after = remaining })
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> raise (Link.Timeout { peer; after = remaining })
      | _ :: _, _, _ -> Link.of_fd ~peer (Link.accept ~tcp_nodelay:tcp fd)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* ------------------------------------------------------- the peer mesh *)

exception Peer_dead of int

exception Mesh_timeout of int list

type rx = {
  peer : int;
  mutable hdr : Frame.header option;
  mutable buf : Bytes.t;
  mutable off : int;
  mutable frame : Frame.t option;
}

type tx = { tpeer : int; tbuf : Bytes.t; mutable toff : int }

(* One round of worker-to-worker traffic: send every outgoing batch and
   receive one frame from every peer in [expect], interleaved through
   select so opposing bulk sends cannot deadlock on full socket buffers.
   Returns the received frames plus (bytes_sent, bytes_recv) for the
   wire.* counters. Raises [Peer_dead u] on EOF/EPIPE from peer [u], and
   [Mesh_timeout] naming the still-pending peers once [deadline] passes —
   a worker blocked on a dead peer always comes back to report it. *)
let mesh_exchange ~deadline ~(peers : Link.t option array) ~sends ~expect =
  let k = Array.length expect in
  let link u = match peers.(u) with Some l -> l | None -> assert false in
  let txs =
    List.map (fun (u, payload) -> { tpeer = u; tbuf = payload; toff = 0 }) sends
  in
  let txs = ref txs in
  let rxs =
    Array.init k (fun u ->
        if expect.(u) then
          Some
            {
              peer = u;
              hdr = None;
              buf = Bytes.create Frame.header_bytes;
              off = 0;
              frame = None;
            }
        else None)
  in
  let bytes_sent = ref 0 and bytes_recv = ref 0 in
  let rx_pending () =
    let l = ref [] in
    Array.iter
      (function
        | Some rx when rx.frame = None -> l := rx :: !l
        | Some _ | None -> ())
      rxs;
    !l
  in
  let advance_rx rx got =
    rx.off <- rx.off + got;
    if rx.off = Bytes.length rx.buf then begin
      match rx.hdr with
      | None ->
        let hdr = Frame.decode_header rx.buf in
        rx.hdr <- Some hdr;
        rx.buf <- Bytes.create hdr.Frame.len;
        rx.off <- 0;
        if hdr.Frame.len = 0 then rx.frame <- Some (Frame.verify hdr rx.buf)
      | Some hdr -> rx.frame <- Some (Frame.verify hdr rx.buf)
    end
  in
  let rec loop () =
    let pending_rx = rx_pending () in
    if !txs = [] && pending_rx = [] then ()
    else begin
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then
        raise (Mesh_timeout (List.map (fun rx -> rx.peer) pending_rx));
      let rfds = List.map (fun rx -> Link.fd (link rx.peer)) pending_rx in
      let wfds = List.map (fun tx -> Link.fd (link tx.tpeer)) !txs in
      match Unix.select rfds wfds [] remaining with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], [], _ ->
        raise (Mesh_timeout (List.map (fun rx -> rx.peer) pending_rx))
      | readable, writable, _ ->
        List.iter
          (fun tx ->
            if List.mem (Link.fd (link tx.tpeer)) writable then begin
              let remaining = Bytes.length tx.tbuf - tx.toff in
              match
                Unix.single_write (Link.fd (link tx.tpeer)) tx.tbuf tx.toff
                  remaining
              with
              | got ->
                tx.toff <- tx.toff + got;
                bytes_sent := !bytes_sent + got
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | exception
                  Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                raise (Peer_dead tx.tpeer)
            end)
          !txs;
        txs := List.filter (fun tx -> tx.toff < Bytes.length tx.tbuf) !txs;
        List.iter
          (fun rx ->
            if List.mem (Link.fd (link rx.peer)) readable then begin
              let remaining = Bytes.length rx.buf - rx.off in
              if remaining = 0 then advance_rx rx 0
              else
                match
                  Unix.read (Link.fd (link rx.peer)) rx.buf rx.off remaining
                with
                | 0 -> raise (Peer_dead rx.peer)
                | got ->
                  bytes_recv := !bytes_recv + got;
                  advance_rx rx got
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
                  raise (Peer_dead rx.peer)
            end)
          pending_rx;
        loop ()
    end
  in
  loop ();
  let received = ref [] and frames_recv = ref 0 in
  Array.iter
    (function
      | Some rx ->
        incr frames_recv;
        (match rx.frame with
        | Some f -> received := (rx.peer, f) :: !received
        | None -> assert false)
      | None -> ())
    rxs;
  let frames_sent = List.length sends in
  List.iter
    (fun (u, payload) ->
      Link.note_sent (link u) ~bytes:(Bytes.length payload) ~frames:1)
    sends;
  Array.iter
    (function
      | Some rx ->
        let l = link rx.peer in
        Link.note_recv l
          ~bytes:
            (Frame.header_bytes
            + match rx.hdr with Some h -> h.Frame.len | None -> 0)
          ~frames:1
      | None -> ())
    rxs;
  (List.rev !received, !bytes_sent, !bytes_recv, frames_sent, !frames_recv)

(* ------------------------------------------------------------ the worker *)

type wstate = {
  w : int;
  wn : int;
  wk : int;
  mutable epoch : int;
  mutable lo : int;
  mutable hi : int;
  mutable wowner : int array;
  mutable walive : bool array;
  coord : Link.t;
  mutable peers : Link.t option array;
  mesh_fd : Unix.file_descr;
  tcp : bool;
  mutable wtimeout : float;
  arena : Runtime.Arena.t;
  pool : Runtime.Pool.t;
}

(* Inbox slices, encoded in parallel over the worker's domain pool: per
   destination sizes are computed first, offsets prefix-summed, and each
   chunk writes only its own byte range — deterministic bytes for any
   CC_DOMAINS. Layout: [stats:4 ints][slice count][per dst: count, then
   (src, len, words) per entry in inbox-list order]. *)
let encode_reply ~pool ~stats slices =
  let m = Array.length slices in
  let entry_size l =
    List.fold_left (fun a (_, p) -> a + 16 + (8 * Array.length p)) 8 l
  in
  let offs = Array.make (m + 1) (8 * 5) in
  Array.iteri (fun i l -> offs.(i + 1) <- offs.(i) + entry_size l) slices;
  let buf = Bytes.create offs.(m) in
  let bs, br, fs, fr = stats in
  Bytes.set_int64_le buf 0 (Int64.of_int bs);
  Bytes.set_int64_le buf 8 (Int64.of_int br);
  Bytes.set_int64_le buf 16 (Int64.of_int fs);
  Bytes.set_int64_le buf 24 (Int64.of_int fr);
  Bytes.set_int64_le buf 32 (Int64.of_int m);
  Runtime.Pool.run pool ~n:m (fun clo chi ->
      for d = clo to chi - 1 do
        let p = ref offs.(d) in
        let put v =
          Bytes.set_int64_le buf !p (Int64.of_int v);
          p := !p + 8
        in
        put (List.length slices.(d));
        List.iter
          (fun (src, pay) ->
            put src;
            put (Array.length pay);
            Array.iter put pay)
          slices.(d)
      done);
  buf

(* Worker replies are deadline-bounded: a coordinator that stopped reading
   makes the worker exit (and be supervised) instead of wedging. *)
let reply st ~kind ~seq payload =
  Link.send
    ~deadline:(Unix.gettimeofday () +. st.wtimeout)
    st.coord
    { Frame.kind; src = st.w; dst = -1; seq; epoch = st.epoch; payload }

let overflow_payload (o : Shard.overflow) =
  let w = Frame.Writer.create ~hint:64 () in
  Frame.Writer.int w o.gidx;
  Frame.Writer.int w o.src;
  Frame.Writer.int w o.dst;
  Frame.Writer.int w o.words;
  Frame.Writer.int w o.width;
  Frame.Writer.contents w

(* Report dead or unresponsive mesh peers to the coordinator — the worker
   itself stays alive and waits for the recovery Config. *)
let report_down st ~seq suspects =
  let w = Frame.Writer.create ~hint:32 () in
  Frame.Writer.ints w (Array.of_list suspects);
  reply st ~kind:k_peer_down ~seq (Frame.Writer.contents w)

let handle_exchange st (f : Frame.t) =
  if f.epoch < st.epoch then true (* stale frame from before a recovery *)
  else begin
    let r = Frame.Reader.of_bytes f.payload in
    let phase = Frame.Reader.string r in
    let width = Frame.Reader.int r in
    let mask = Frame.Reader.int r in
    let msgs = get_batch r in
    Mailbox.set_context phase;
    let parts = Shard.partition_by_dst ~owner:st.wowner ~shards:st.wk msgs in
    let sends = ref [] in
    for u = st.wk - 1 downto 0 do
      if u <> st.w && parts.(u) <> [] then begin
        let w = Frame.Writer.create ~hint:256 () in
        put_batch w parts.(u);
        let frame =
          { Frame.kind = k_peer; src = st.w; dst = u; seq = f.seq;
            epoch = st.epoch; payload = Frame.Writer.contents w }
        in
        sends := (u, Frame.encode frame) :: !sends
      end
    done;
    let expect = Array.init st.wk (fun u -> mask land (1 lsl u) <> 0) in
    let deadline = Unix.gettimeofday () +. st.wtimeout in
    match mesh_exchange ~deadline ~peers:st.peers ~sends:!sends ~expect with
    | exception Peer_dead u ->
      report_down st ~seq:f.seq [ u ];
      true
    | exception Mesh_timeout us ->
      report_down st ~seq:f.seq us;
      true
    | received, bytes_sent, bytes_recv, frames_sent, frames_recv -> (
      let stale =
        List.filter_map
          (fun (u, (pf : Frame.t)) ->
            if pf.epoch <> st.epoch then Some u else None)
          received
      in
      if stale <> [] then begin
        report_down st ~seq:f.seq stale;
        true
      end
      else begin
        let peer_lists =
          List.map
            (fun (_, (pf : Frame.t)) ->
              get_batch (Frame.Reader.of_bytes pf.payload))
            received
        in
        let inbound = Shard.merge_inbound (parts.(st.w) :: peer_lists) in
        (match
           Shard.deliver_local ~arena:st.arena ~n:st.wn ~width ~lo:st.lo
             ~hi:st.hi inbound
         with
        | Shard.Overflow o ->
          reply st ~kind:k_error ~seq:f.seq (overflow_payload o)
        | Shard.Inboxes slices ->
          let payload =
            encode_reply ~pool:st.pool
              ~stats:(bytes_sent, bytes_recv, frames_sent, frames_recv)
              slices
          in
          reply st ~kind:k_inboxes ~seq:f.seq payload);
        true
      end)
  end

(* A Config frame (re)builds the whole session view: epoch, the session
   timeout, the live table, every live worker's node range and mesh
   address. The worker adopts the coordinator's timeout, so its mesh waits
   end before the coordinator's reply deadline does. It closes all peer
   links — discarding any half-received frames of an aborted round — and
   re-forms the mesh with fresh sockets: connect to every lower live
   shard, accept every higher live one, all bounded by that timeout. A
   stale hello from a previous epoch is dropped and the accept retried. *)
let handle_config st (f : Frame.t) =
  let r = Frame.Reader.of_bytes f.payload in
  let epoch = Frame.Reader.int r in
  if epoch < st.epoch then true
  else begin
    st.wtimeout <- float_of_string (Frame.Reader.string r);
    let alive = Array.make st.wk false in
    let ranges = Array.make st.wk (0, 0) in
    let addrs = Array.make st.wk "" in
    for u = 0 to st.wk - 1 do
      alive.(u) <- Frame.Reader.int r = 1;
      let lo = Frame.Reader.int r in
      let hi = Frame.Reader.int r in
      ranges.(u) <- (lo, hi);
      addrs.(u) <- Frame.Reader.string r
    done;
    if not alive.(st.w) then failwith "shard worker: configured as dead";
    Array.iter (function Some l -> Link.close l | None -> ()) st.peers;
    st.epoch <- epoch;
    st.walive <- alive;
    let lo, hi = ranges.(st.w) in
    st.lo <- lo;
    st.hi <- hi;
    let owner = Array.make st.wn (-1) in
    Array.iteri
      (fun u (ulo, uhi) ->
        if alive.(u) then
          for v = ulo to uhi - 1 do
            owner.(v) <- u
          done)
      ranges;
    st.wowner <- owner;
    let peers = Array.make st.wk None in
    let dial_peer u =
      let l =
        Link.dial ~peer:(Printf.sprintf "shard%d" u) (Link.address addrs.(u))
      in
      Link.send
        ~deadline:(Unix.gettimeofday () +. st.wtimeout)
        l
        { Frame.kind = k_hello; src = st.w; dst = u; seq = 0;
          epoch = st.epoch; payload = Bytes.create 0 };
      peers.(u) <- Some l
    in
    for u = 0 to st.w - 1 do
      if alive.(u) then dial_peer u
    done;
    let higher = ref 0 in
    for u = st.w + 1 to st.wk - 1 do
      if alive.(u) then incr higher
    done;
    let deadline = Unix.gettimeofday () +. st.wtimeout in
    let accepted = ref 0 in
    while !accepted < !higher do
      let l = accept_deadline ~deadline ~tcp:st.tcp ~peer:"shard" st.mesh_fd in
      match Link.recv ~deadline l with
      | exception (Link.Closed _ | Frame.Malformed _ | Link.Timeout _) ->
        Link.close l
      | h ->
        if h.Frame.epoch < st.epoch then Link.close l (* dead incarnation *)
        else if
          h.Frame.kind <> k_hello
          || h.Frame.src <= st.w
          || h.Frame.src >= st.wk
          || (not st.walive.(h.Frame.src))
          || Option.is_some peers.(h.Frame.src)
        then failwith "shard worker: bad mesh hello"
        else begin
          peers.(h.Frame.src) <- Some l;
          incr accepted
        end
    done;
    st.peers <- peers;
    reply st ~kind:k_ready ~seq:f.seq (Bytes.create 0);
    true
  end

let handle_heartbeat st (f : Frame.t) =
  reply st ~kind:k_heartbeat_ack ~seq:f.seq (Bytes.create 0);
  true

let worker_serve st =
  let continue = ref true in
  while !continue do
    match Link.recv st.coord with
    | exception Link.Closed _ -> continue := false
    | f ->
      if f.Frame.kind = k_shutdown then continue := false
      else if f.Frame.kind = k_exchange then continue := handle_exchange st f
      else if f.Frame.kind = k_config then continue := handle_config st f
      else if f.Frame.kind = k_heartbeat then continue := handle_heartbeat st f
      else begin
        Printf.eprintf "shard worker %d: unexpected frame kind %d\n%!" st.w
          f.Frame.kind;
        continue := false
      end
  done

(* ----------------------------------------------------- worker bootstrap *)

(* A spawned worker process is a re-exec of the current binary, started by
   the coordinator with
   CC_SHARD_WORKER="<shard>/<shards>/<n>/<epoch>/<domains>/<addr>" in its
   environment; this module's initializer (bottom of file) diverts into
   [worker_main] before the program's own entry point ever runs. A remote
   worker is any process that calls [remote_worker addr] (the [cc_worker]
   launcher): it dials the coordinator, sends a hello with src = -1, and is
   assigned a reserved slot. *)

(* How a worker joins: spawned, with its CC_SHARD_WORKER spec, or remote,
   with the coordinator's address. *)
type boot = Spawned of string | Remote of string

let parse_spec spec =
  match String.split_on_char '/' spec with
  | s :: k :: n :: e :: d :: rest when rest <> [] -> (
    match
      ( int_of_string_opt s,
        int_of_string_opt k,
        int_of_string_opt n,
        int_of_string_opt e,
        int_of_string_opt d )
    with
    | Some s, Some k, Some n, Some e, Some d ->
      ((s, k, n, e), d, String.concat "/" rest)
    | _ -> failwith "CC_SHARD_WORKER: malformed spec")
  | _ -> failwith "CC_SHARD_WORKER: malformed spec"

(* A Unix-domain session's mesh socket for the worker tagged [tag]: the
   rendezvous path plus ["-m<s>"] for spawned slot [s] ({!spawned_tag}),
   ["-r<pid>"] for a remote worker. *)
let mesh_socket path tag = Link.Unix_socket (path ^ "-" ^ tag)

let spawned_tag s = Printf.sprintf "m%d" s

(* The worker's own mesh listener. For TCP it binds the local address the
   coordinator connection runs over (correct on any host, remote
   included); for Unix-domain sessions, {!mesh_socket}. It stays open for
   the whole worker life — recovery Configs rebuild the mesh through
   it. *)
let mesh_listener ~coord ~coord_addr ~tag =
  Link.listen
    (match coord_addr with
    | Link.Tcp _ ->
      let host =
        match Unix.getsockname (Link.fd coord) with
        | Unix.ADDR_INET (a, _) -> Unix.string_of_inet_addr a
        | Unix.ADDR_UNIX _ -> "127.0.0.1"
      in
      Link.Tcp (host, 0)
    | Link.Unix_socket path -> mesh_socket path tag)

(* One boot for both kinds of worker: ignore SIGPIPE, dial the
   coordinator, open the mesh listener, send the Hello that carries the
   mesh address, then serve. A remote worker may start before its
   coordinator binds the rendezvous, so it retries refused dials until its
   own timeout, and it learns its slot from the Assign reply. Its timeout
   is [CC_SHARD_TIMEOUT] only until the first Config brings the
   session's. A spawned worker runs the coordinator's domain count, which
   its spec carries; a remote one runs its own [CC_DOMAINS]. A worker that
   leaves normally removes its own mesh socket file; the coordinator
   removes a spawned slot's too, since it may have SIGKILLed the worker. *)
let worker_boot boot =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let timeout = (Runtime.Config.get ()).timeout in
  let slot, domains, addr =
    match boot with
    | Spawned spec ->
      let slot, domains, addr = parse_spec spec in
      (Some slot, domains, addr)
    | Remote addr -> (None, Runtime.Pool.default_domains (), addr)
  in
  let coord_addr = Link.address addr in
  let coord =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      match Link.dial ~peer:"coordinator" coord_addr with
      | l -> l
      | exception
          Unix.Unix_error
            ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ETIMEDOUT), _, _)
        when slot = None && Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        go ()
    in
    go ()
  in
  let tag =
    match slot with
    | Some (s, _, _, _) -> spawned_tag s
    | None -> Printf.sprintf "r%d" (Unix.getpid ())
  in
  let mesh_fd, mesh_addr = mesh_listener ~coord ~coord_addr ~tag in
  Fun.protect ~finally:(fun () -> Link.unlink mesh_addr) @@ fun () ->
  let hello = Frame.Writer.create ~hint:64 () in
  Frame.Writer.string hello (Link.to_string mesh_addr);
  let src, epoch =
    match slot with Some (s, _, _, e) -> (s, e) | None -> (-1, 0)
  in
  Link.send coord
    { Frame.kind = k_hello; src; dst = -1; seq = 0; epoch;
      payload = Frame.Writer.contents hello };
  let s, k, n, epoch =
    match slot with
    | Some slot -> slot
    | None ->
      let a = Link.recv ~deadline:(Unix.gettimeofday () +. timeout) coord in
      if a.Frame.kind <> k_assign then
        failwith "remote worker: expected an Assign frame";
      let r = Frame.Reader.of_bytes a.Frame.payload in
      let s = Frame.Reader.int r in
      let k = Frame.Reader.int r in
      let n = Frame.Reader.int r in
      (s, k, n, Frame.Reader.int r)
  in
  worker_serve
    {
      w = s;
      wn = n;
      wk = k;
      epoch;
      lo = 0;
      hi = 0;
      wowner = [||];
      walive = Array.make k true;
      coord;
      peers = Array.make k None;
      mesh_fd;
      tcp = Link.is_tcp coord_addr;
      wtimeout = timeout;
      arena = Runtime.Arena.create ~n ();
      pool = Runtime.Pool.get domains;
    }

(* Never returns: a worker leaves with [Unix._exit] so the parent's at_exit
   hooks (session closes, pool joins, channel flushes) stay the parent's. *)
let worker_main boot =
  match worker_boot boot with
  | () -> Unix._exit 0
  | exception e ->
    Printf.eprintf "shard worker: %s\n%!" (Printexc.to_string e);
    Unix._exit 1

let remote_worker addr = worker_main (Remote addr)

(* ------------------------------------------------------ the coordinator *)

type state = Live | Down of int * string | Closed

type t = {
  n : int;
  k : int;
  rendezvous : Link.address;  (** as bound, TCP port resolved *)
  lfd : Unix.file_descr;  (** stays open: respawns and remote joins dial it *)
  policy : Shard.policy;
  timeout : float;
  backoff : float;
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
    Link.unlink (mesh_socket path (spawned_tag s))
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
                { Frame.kind = k_shutdown; src = -1; dst = 0; seq = 0;
                  epoch = epoch t; payload = Bytes.create 0 }
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
   pinned. The spec carries the effective domain count, since a
   [Runtime.Config.with_] record does not survive the exec. *)
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
       (Printf.sprintf "%d/%d/%d/%d/%d/%s" s t.k t.n epoch
          (Runtime.Pool.default_domains ())
          (Link.to_string t.rendezvous)))
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
  let w = Frame.Writer.create ~hint:256 () in
  Frame.Writer.int w (epoch t);
  Frame.Writer.string w (Printf.sprintf "%h" t.timeout);
  for s = 0 to t.k - 1 do
    Frame.Writer.int w (if Shard.Partition.alive t.part s then 1 else 0);
    let lo, hi = Shard.Partition.bounds t.part s in
    Frame.Writer.int w lo;
    Frame.Writer.int w hi;
    Frame.Writer.string w t.addrs.(s)
  done;
  Frame.Writer.contents w

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
    ask_live t ~kind:k_config ~reply:k_ready ~seq:0 (config_payload t)
  in
  failed

(* Await hello frames (and assign remote slots) for the slot set [want] on
   the session listener. Used both at bootstrap and by respawn. Raises
   [Dead_workers] naming the still-missing slots on any failure — the
   caller cleans up or retries. The per-connection recv is bounded too: a
   client that connects but never sends its hello cannot wedge the
   rendezvous (it burns at most the remaining deadline, then fails it).
   The mesh address is decoded with the frame, so a hello whose payload
   does not decode is a failed hello like any other. *)
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
        (h, Frame.Reader.string (Frame.Reader.of_bytes h.Frame.payload))
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
          h.Frame.kind = k_hello
          && h.Frame.src >= 0
          && h.Frame.src < t.k - t.remote
          && List.mem h.Frame.src !missing
        then accept_slot h.Frame.src
        else if h.Frame.kind = k_hello && h.Frame.src = -1 then begin
          (* an external worker: assign the lowest waiting remote slot *)
          match List.filter (fun s -> s >= t.k - t.remote) !missing with
          | [] ->
            Link.close l;
            fail ()
          | s :: _ -> (
            let w = Frame.Writer.create ~hint:64 () in
            Frame.Writer.int w s;
            Frame.Writer.int w t.k;
            Frame.Writer.int w t.n;
            Frame.Writer.int w (epoch t);
            match
              Link.send ~deadline l
                { Frame.kind = k_assign; src = -1; dst = s; seq = 0;
                  epoch = epoch t; payload = Frame.Writer.contents w }
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

(* Respawn attempts per death before the session goes down. *)
let max_respawns = 3

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
      let pause = t.backoff *. (2.0 ** float_of_int (attempt - 1)) in
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
    ask_live t ~kind:k_heartbeat ~reply:k_heartbeat_ack ~seq:t.seq
      (Bytes.create 0)
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

let create ?shards:requested ?addr ?remote ?policy ?timeout ?(backoff = 0.2)
    n =
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
  let backoff = Float.max 0.0 backoff in
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
      backoff;
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

type outcome =
  | Ok_inboxes of (int * int array) list array * (int * int * int * int)
  | Err of Shard.overflow

let read_overflow r : Shard.overflow =
  let gidx = Frame.Reader.int r in
  let src = Frame.Reader.int r in
  let dst = Frame.Reader.int r in
  let words = Frame.Reader.int r in
  let width = Frame.Reader.int r in
  { gidx; src; dst; words; width }

(* An Inboxes payload, as [encode_reply] lays it out. A slice takes at
   least its count, an entry its source and length. *)
let read_inboxes r =
  let bs = Frame.Reader.int r in
  let br = Frame.Reader.int r in
  let fs = Frame.Reader.int r in
  let fr = Frame.Reader.int r in
  let entry _ =
    let src = Frame.Reader.int r in
    (src, Frame.Reader.ints r)
  in
  let slices =
    Array.init (Frame.Reader.count r ~bytes:8) (fun _ ->
        List.init (Frame.Reader.count r ~bytes:16) entry)
  in
  Ok_inboxes (slices, (bs, br, fs, fr))

(* One reply from slot [s]: an outcome, or the slots it implicates as
   dead (itself on EOF/timeout, or on a reply that does not decode; the
   existing slots it names on a PeerDown report, or itself if it names
   none). *)
let collect_reply t ~deadline s =
  match
    let f = recv_current t ~deadline s in
    let r = Frame.Reader.of_bytes f.Frame.payload in
    if f.Frame.kind = k_peer_down then begin
      let named =
        List.filter
          (fun u -> u >= 0 && u < t.k)
          (Array.to_list (Frame.Reader.ints r))
      in
      `Dead (if named = [] then [ s ] else named)
    end
    else if f.Frame.kind = k_error then `Out (Err (read_overflow r))
    else if f.Frame.kind = k_inboxes then `Out (read_inboxes r)
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
        let w = Frame.Writer.create ~hint:512 () in
        Frame.Writer.string w (Mailbox.current_context ());
        Frame.Writer.int w width;
        let mask = ref 0 in
        Array.iteri
          (fun u from_u -> if from_u then mask := !mask lor (1 lsl u))
          split.expect.(s);
        Frame.Writer.int w !mask;
        put_batch w split.by_src_shard.(s);
        send_to t s
          { Frame.kind = k_exchange; src = -1; dst = s; seq = t.seq;
            epoch = e; payload = Frame.Writer.contents w })
      lives;
    let slices = Array.make t.k [||] in
    let errors = ref [] in
    collect_all t ~each:(fun s -> function
      | Ok_inboxes (sl, (bs, br, fs, fr)) ->
        slices.(s) <- sl;
        t.peer_bytes_sent <- t.peer_bytes_sent + bs;
        t.peer_bytes_recv <- t.peer_bytes_recv + br;
        t.peer_frames <- t.peer_frames + fs;
        ignore fr
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

let coordinator_bytes_sent t =
  Array.fold_left
    (fun a -> function Some l -> a + Link.bytes_sent l | None -> a)
    0 t.links

let coordinator_bytes_recv t =
  Array.fold_left
    (fun a -> function Some l -> a + Link.bytes_recv l | None -> a)
    0 t.links

let coordinator_frames t =
  Array.fold_left
    (fun a -> function
      | Some l -> a + Link.frames_sent l + Link.frames_recv l
      | None -> a)
    0 t.links

let stats t =
  [
    ("wire.frames", coordinator_frames t + t.peer_frames);
    ("wire.bytes_sent", coordinator_bytes_sent t + t.peer_bytes_sent);
    ("wire.bytes_recv", coordinator_bytes_recv t + t.peer_bytes_recv);
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

(* Runs at module initialization — i.e. in every executable linking this
   library, before its own entry point. A process spawned by [create]
   carries the worker spec in its environment and never comes back. *)
let () =
  match Sys.getenv_opt "CC_SHARD_WORKER" with
  | Some spec -> worker_main (Spawned spec)
  | None -> ()
