(* A shard worker (DESIGN.md §11.2, §14): boot, mesh and serve loop.
   [Socket]'s initializer diverts a spawned re-exec here before the
   program's own entry point runs; [Socket.remote_worker] enters as a
   remote worker. *)

module Frame = Wire.Frame
module Link = Wire.Link
module P = Socket_protocol
module Shard = Runtime.Shard
module Mailbox = Runtime.Mailbox

type wstate = {
  w : int;
  wn : int;
  wk : int;
  mutable epoch : int;
  mutable lo : int;
  mutable hi : int;
  mutable wowner : int array;
  coord : Link.t;
  mutable peers : Link.t option array;
  mesh_fd : Unix.file_descr;
  tcp : bool;
  mutable wtimeout : float;
  arena : Runtime.Arena.t;
  pool : Runtime.Pool.t;
}

(* Worker replies are deadline-bounded: a coordinator that stopped reading
   makes the worker exit (and be supervised) instead of wedging. *)
let reply st ~kind ~seq payload =
  Link.send
    ~deadline:(Unix.gettimeofday () +. st.wtimeout)
    st.coord
    { Frame.kind; src = st.w; dst = -1; seq; epoch = st.epoch; payload }

(* Report dead or unresponsive mesh peers to the coordinator — the worker
   itself stays alive and waits for the recovery Config. *)
let report_down st ~seq suspects =
  reply st ~kind:P.k_peer_down ~seq (P.encode_peer_down suspects)

let frame_bytes (f : Frame.t) = Frame.header_bytes + Bytes.length f.payload

(* One round of worker-to-worker traffic, bounded by the session timeout,
   so a worker blocked on a dead peer always comes back to report it. *)
let handle_exchange st (f : Frame.t) =
  if f.epoch < st.epoch then true (* stale frame from before a recovery *)
  else begin
    let x = P.decode_exchange f.payload in
    Mailbox.set_context x.phase;
    let parts = Shard.partition_by_dst ~owner:st.wowner ~shards:st.wk x.msgs in
    let link u = match st.peers.(u) with Some l -> l | None -> assert false in
    let send = ref [] and recv = ref [] in
    for u = st.wk - 1 downto 0 do
      if u <> st.w && parts.(u) <> [] then
        send :=
          ( u, link u,
            { Frame.kind = P.k_peer; src = st.w; dst = u; seq = f.seq;
              epoch = st.epoch; payload = P.encode_batch parts.(u) } )
          :: !send;
      if x.expect land (1 lsl u) <> 0 then recv := (u, link u) :: !recv
    done;
    let deadline = Unix.gettimeofday () +. st.wtimeout in
    (match Link.multiplex ~deadline ~send:!send ~recv:!recv with
    | Link.Hung_up u -> report_down st ~seq:f.seq [ u ]
    | Link.Expired us -> report_down st ~seq:f.seq us
    | Link.Received got -> (
      match List.filter (fun (_, (g : Frame.t)) -> g.epoch <> st.epoch) got with
      | _ :: _ as stale -> report_down st ~seq:f.seq (List.map fst stale)
      | [] -> (
        let batch (_, (g : Frame.t)) = P.decode_batch g.payload in
        let inbound =
          Shard.merge_inbound (parts.(st.w) :: List.map batch got)
        in
        match
          Shard.deliver_local ~arena:st.arena ~n:st.wn ~width:x.width ~lo:st.lo
            ~hi:st.hi inbound
        with
        | Shard.Overflow o ->
          reply st ~kind:P.k_error ~seq:f.seq (P.encode_overflow o)
        | Shard.Inboxes slices ->
          let sum l = List.fold_left (fun a g -> a + frame_bytes g) 0 l in
          let mesh =
            { P.bytes_sent = sum (List.map (fun (_, _, g) -> g) !send);
              bytes_recv = sum (List.map snd got);
              frames_sent = List.length !send;
              frames_recv = List.length got }
          in
          reply st ~kind:P.k_inboxes ~seq:f.seq
            (P.encode_inboxes ~pool:st.pool { mesh; slices }))));
    true
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
  let c = P.decode_config ~shards:st.wk f.payload in
  if c.epoch < st.epoch then true
  else begin
    st.wtimeout <- c.timeout;
    let alive = Array.map (fun (m : P.member) -> m.alive) c.members in
    if not alive.(st.w) then failwith "shard worker: configured as dead";
    Array.iter (function Some l -> Link.close l | None -> ()) st.peers;
    st.epoch <- c.epoch;
    st.lo <- c.members.(st.w).lo;
    st.hi <- c.members.(st.w).hi;
    let owner = Array.make st.wn (-1) in
    Array.iteri
      (fun u (m : P.member) ->
        if m.alive then
          for v = m.lo to m.hi - 1 do
            owner.(v) <- u
          done)
      c.members;
    st.wowner <- owner;
    let peers = Array.make st.wk None in
    let dial_peer u =
      let l =
        Link.dial ~peer:(Printf.sprintf "shard%d" u)
          (Link.address c.members.(u).mesh_addr)
      in
      Link.send
        ~deadline:(Unix.gettimeofday () +. st.wtimeout)
        l
        { Frame.kind = P.k_hello; src = st.w; dst = u; seq = 0;
          epoch = st.epoch; payload = Bytes.empty };
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
      let l =
        Link.of_fd ~peer:"shard"
          (Link.accept ~deadline ~tcp_nodelay:st.tcp st.mesh_fd)
      in
      match Link.recv ~deadline l with
      | exception (Link.Closed _ | Frame.Malformed _ | Link.Timeout _) ->
        Link.close l
      | h ->
        if h.Frame.epoch < st.epoch then Link.close l (* dead incarnation *)
        else if
          h.Frame.kind <> P.k_hello
          || h.Frame.src <= st.w
          || h.Frame.src >= st.wk
          || (not alive.(h.Frame.src))
          || Option.is_some peers.(h.Frame.src)
        then failwith "shard worker: bad mesh hello"
        else begin
          peers.(h.Frame.src) <- Some l;
          incr accepted
        end
    done;
    st.peers <- peers;
    reply st ~kind:P.k_ready ~seq:f.seq Bytes.empty;
    true
  end

let handle_heartbeat st (f : Frame.t) =
  reply st ~kind:P.k_heartbeat_ack ~seq:f.seq Bytes.empty;
  true

let serve st =
  let continue = ref true in
  while !continue do
    match Link.recv st.coord with
    | exception Link.Closed _ -> continue := false
    | f ->
      if f.Frame.kind = P.k_shutdown then continue := false
      else if f.Frame.kind = P.k_exchange then continue := handle_exchange st f
      else if f.Frame.kind = P.k_config then continue := handle_config st f
      else if f.Frame.kind = P.k_heartbeat then
        continue := handle_heartbeat st f
      else begin
        Printf.eprintf "shard worker %d: unexpected frame kind %d\n%!" st.w
          f.Frame.kind;
        continue := false
      end
  done

(* ------------------------------------------------------------- the boot *)

type boot = Spawned of string | Remote of string

(* A Unix-domain session's mesh socket for the worker tagged [tag]: the
   rendezvous path plus ["-m<s>"] for spawned slot [s], ["-r<pid>"] for a
   remote worker. *)
let mesh_socket path tag = Link.Unix_socket (path ^ "-" ^ tag)

let spawned_tag s = Printf.sprintf "m%d" s

let spawned_mesh path s = mesh_socket path (spawned_tag s)

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
let boot how =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let timeout = (Runtime.Config.get ()).timeout in
  let spawned, domains, addr =
    match how with
    | Spawned spec ->
      let p = P.spec_of_string spec in
      (Some p.assign, p.domains, p.rendezvous)
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
        when spawned = None && Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        go ()
    in
    go ()
  in
  let tag =
    match spawned with
    | Some a -> spawned_tag a.slot
    | None -> Printf.sprintf "r%d" (Unix.getpid ())
  in
  let mesh_fd, mesh_addr = mesh_listener ~coord ~coord_addr ~tag in
  Fun.protect ~finally:(fun () -> Link.unlink mesh_addr) @@ fun () ->
  let src, epoch =
    match spawned with Some a -> (a.slot, a.epoch) | None -> (-1, 0)
  in
  Link.send coord
    { Frame.kind = P.k_hello; src; dst = -1; seq = 0; epoch;
      payload = P.encode_hello (Link.to_string mesh_addr) };
  let a =
    match spawned with
    | Some a -> a
    | None ->
      let f = Link.recv ~deadline:(Unix.gettimeofday () +. timeout) coord in
      if f.Frame.kind <> P.k_assign then
        failwith "remote worker: expected an Assign frame";
      P.decode_assign f.Frame.payload
  in
  serve
    {
      w = a.slot;
      wn = a.n;
      wk = a.shards;
      epoch = a.epoch;
      lo = 0;
      hi = 0;
      wowner = [||];
      coord;
      peers = Array.make a.shards None;
      mesh_fd;
      tcp = Link.is_tcp coord_addr;
      wtimeout = timeout;
      arena = Runtime.Arena.create ~n:a.n ();
      pool = Runtime.Pool.get domains;
    }

let main how =
  match boot how with
  | () -> Unix._exit 0
  | exception e ->
    Printf.eprintf "shard worker: %s\n%!" (Printexc.to_string e);
    Unix._exit 1
