(* A connected file descriptor carrying {!Frame}s, with byte/frame
   counters, and the one address grammar every endpoint is dialed and
   bound through: Unix-domain sockets (the default rendezvous between the
   coordinator and its spawned workers, and cc_serve's default) and TCP
   ([CC_SHARD_ADDR], remote workers). *)

exception Closed of { peer : string; during : string }

exception Timeout of { peer : string; after : float }

let () =
  Printexc.register_printer (function
    | Closed { peer; during } ->
      Some (Printf.sprintf "Wire.Link.Closed(peer=%s, during=%s)" peer during)
    | Timeout { peer; after } ->
      Some (Printf.sprintf "Wire.Link.Timeout(peer=%s, after=%.3fs)" peer after)
    | _ -> None)

type t = {
  fd : Unix.file_descr;
  peer : string;
  mutable bytes_sent : int;
  mutable bytes_recv : int;
  mutable frames_sent : int;
  mutable frames_recv : int;
  mutable closed : bool;
}

let of_fd ?(peer = "?") fd =
  { fd; peer; bytes_sent = 0; bytes_recv = 0; frames_sent = 0; frames_recv = 0;
    closed = false }

let fd t = t.fd

let peer t = t.peer

let bytes_sent t = t.bytes_sent

let bytes_recv t = t.bytes_recv

let frames_sent t = t.frames_sent

let frames_recv t = t.frames_recv

(* The select loop of the shard mesh does its own raw I/O on [fd]; it
   reports the traffic back through these so the counters stay whole. *)
let note_sent t ~bytes ~frames =
  t.bytes_sent <- t.bytes_sent + bytes;
  t.frames_sent <- t.frames_sent + frames

let note_recv t ~bytes ~frames =
  t.bytes_recv <- t.bytes_recv + bytes;
  t.frames_recv <- t.frames_recv + frames

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Wait until [t.fd] is ready in the requested direction or [deadline]
   (absolute [Unix.gettimeofday] time) passes — the bounded-wait primitive
   behind both directions of a supervised link. [None] blocks. *)
let await_ready ?deadline t ~read =
  match deadline with
  | None -> ()
  | Some d ->
    let rec wait () =
      let remaining = d -. Unix.gettimeofday () in
      if remaining <= 0.0 then raise (Timeout { peer = t.peer; after = remaining })
      else
        let rfds = if read then [ t.fd ] else []
        and wfds = if read then [] else [ t.fd ] in
        match Unix.select rfds wfds [] remaining with
        | [], [], _ -> raise (Timeout { peer = t.peer; after = remaining })
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ()

let rec write_all ?deadline t b off len =
  if len > 0 then begin
    await_ready ?deadline t ~read:false;
    match Unix.write t.fd b off len with
    | k ->
      t.bytes_sent <- t.bytes_sent + k;
      write_all ?deadline t b (off + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      write_all ?deadline t b off len
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      raise (Closed { peer = t.peer; during = "write" })
  end

(* Bounded read: before each [Unix.read], wait for readability until
   [deadline] (absolute [Unix.gettimeofday] time). The shard supervisor
   turns a Timeout into worker-death handling — no blocking wait in the
   coordinator is unbounded. [deadline = None] blocks indefinitely. *)
let rec read_exact ?deadline t b off len =
  if len > 0 then begin
    await_ready ?deadline t ~read:true;
    match Unix.read t.fd b off len with
    | 0 -> raise (Closed { peer = t.peer; during = "read" })
    | k ->
      t.bytes_recv <- t.bytes_recv + k;
      read_exact ?deadline t b (off + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      read_exact ?deadline t b off len
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      raise (Closed { peer = t.peer; during = "read" })
  end

let send ?deadline t frame =
  let b = Frame.encode frame in
  write_all ?deadline t b 0 (Bytes.length b);
  t.frames_sent <- t.frames_sent + 1

let read_header ?deadline t hdr_buf =
  read_exact ?deadline t hdr_buf 0 Frame.header_bytes;
  Frame.decode_header hdr_buf

let recv ?deadline t =
  let hdr = read_header ?deadline t (Bytes.create Frame.header_bytes) in
  let payload = Bytes.create hdr.Frame.len in
  read_exact ?deadline t payload 0 hdr.Frame.len;
  t.frames_recv <- t.frames_recv + 1;
  Frame.verify hdr payload

(* Storage a buffer keeps between payloads. A longer payload (within
   [max_bytes]) is read into storage of its own, garbage once its reader
   drops it, so an idle connection holds at most this much. *)
let kept_bytes = 64 * 1024

type buffer = {
  max_bytes : int;
  header : Bytes.t;
  mutable kept : Bytes.t;  (* never longer than [kept_bytes] or [max_bytes] *)
}

let buffer ~max_bytes =
  let max_bytes = max 1 max_bytes in
  {
    max_bytes;
    header = Bytes.create Frame.header_bytes;
    kept = Bytes.create (min max_bytes 1024);
  }

type received = Payload of Frame.header * Bytes.t | Oversized of Frame.header

(* The payload lands in [b.kept], grown (doubling) when it is too short
   and the payload fits [kept_bytes]; a longer one gets a fresh block.
   One longer than [max_bytes] is read through [b.kept] in chunks and
   dropped, so the stream stays in step and no storage grows for it. *)
let recv_into t b =
  let hdr = read_header t b.header in
  let len = hdr.Frame.len in
  let have = Bytes.length b.kept in
  let received =
    if len <= b.max_bytes then begin
      let keep = min b.max_bytes kept_bytes in
      if len > have && len <= keep then
        b.kept <- Bytes.create (min keep (max len (2 * have)));
      let storage =
        if len <= Bytes.length b.kept then b.kept else Bytes.create len
      in
      read_exact t storage 0 len;
      Frame.check hdr storage;
      Payload (hdr, storage)
    end
    else begin
      let left = ref len in
      while !left > 0 do
        let k = min have !left in
        read_exact t b.kept 0 k;
        left := !left - k
      done;
      Oversized hdr
    end
  in
  t.frames_recv <- t.frames_recv + 1;
  received

(* ------------------------------------------------------------ endpoints *)

let pair ?(peer = "pair") () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (of_fd ~peer a, of_fd ~peer b)

type address = Unix_socket of string | Tcp of string * int

let address addr =
  let bad () =
    invalid_arg
      (Printf.sprintf
         "Wire.Link: bad address %S (want unix:PATH, tcp:HOST:PORT or \
          HOST:PORT)"
         addr)
  in
  let after prefix =
    if String.starts_with ~prefix addr then
      let k = String.length prefix in
      Some (String.sub addr k (String.length addr - k))
    else None
  in
  match after "unix:" with
  | Some "" -> bad ()
  | Some path -> Unix_socket path
  | None -> (
    let hp = Option.value (after "tcp:") ~default:addr in
    match String.rindex_opt hp ':' with
    | None | Some 0 -> bad ()
    | Some i -> (
      let port = String.sub hp (i + 1) (String.length hp - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 -> Tcp (String.sub hp 0 i, p)
      | _ -> bad ()))

let to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let is_tcp = function Tcp _ -> true | Unix_socket _ -> false

let resolve = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) as a -> (
    match Unix.inet_addr_of_string host with
    | ia -> Unix.ADDR_INET (ia, port)
    | exception Failure _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (ia, _); _ } :: _ ->
        Unix.ADDR_INET (ia, port)
      | _ ->
        invalid_arg
          (Printf.sprintf "Wire.Link: unknown host %S in address %S" host
             (to_string a))))

(* A fresh socket of [sa]'s family, closed again if [setup] raises. *)
let socket_for sa setup =
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try setup fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let dial ~peer a =
  let sa = resolve a in
  let fd =
    socket_for sa (fun fd ->
        Unix.connect fd sa;
        if is_tcp a then Unix.setsockopt fd Unix.TCP_NODELAY true)
  in
  of_fd ~peer fd

let unlink = function
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let listen a =
  let sa = resolve a in
  let fd =
    socket_for sa (fun fd ->
        unlink a;
        if is_tcp a then Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd sa;
        Unix.listen fd 64)
  in
  match (a, Unix.getsockname fd) with
  | Tcp (host, _), Unix.ADDR_INET (_, port) -> (fd, Tcp (host, port))
  | _ -> (fd, a)

let accept ?(tcp_nodelay = false) lsock =
  let fd, _ = Unix.accept lsock in
  if tcp_nodelay then Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd
