(** A connected file descriptor carrying {!Frame}s, and the one address
    grammar (below) every endpoint is dialed and bound through.

    All reads and writes loop over partial transfers and retry [EINTR]; a
    peer that went away ([EOF], [EPIPE], [ECONNRESET]) raises {!Closed}
    with the link's peer label — the shard coordinator turns that into a
    structured [Runtime.Shard.Shard_down], never a hang. Every link keeps
    byte and frame counters feeding the [wire.*] metrics. *)

exception Closed of { peer : string; during : string }

exception Timeout of { peer : string; after : float }
(** A bounded {!recv} found no bytes before its deadline. The shard
    supervisor treats this exactly like a dead peer: the link's owner is
    presumed gone and recovery policy applies. *)

type t

val of_fd : ?peer:string -> Unix.file_descr -> t
(** Wrap an already-connected descriptor; [peer] labels error messages. *)

val fd : t -> Unix.file_descr

val send : ?deadline:float -> t -> Frame.t -> unit
(** Encode and write the whole frame. With [deadline] (absolute
    [Unix.gettimeofday] instant) every wait for writability is bounded
    and expiry raises {!Timeout} — note a mid-frame timeout leaves the
    stream desynchronized, so a supervised sender must treat the link as
    dead afterwards. Without it the write blocks. *)

val recv : ?deadline:float -> t -> Frame.t
(** Read exactly one frame; verifies version and checksum, raising
    [Frame.Malformed] on a corrupt stream and {!Closed} on EOF. With
    [deadline] (an absolute [Unix.gettimeofday] instant) every byte wait
    is bounded and expiry raises {!Timeout}; without it the read blocks
    indefinitely. *)

(** {2 Receiving in place}

    A server that parses each request and then forgets it reads through
    a {!buffer} the connection keeps, so a request allocates no payload.
    {!recv_into} shares {!recv}'s read loop and checks. *)

type buffer
(** A receive buffer for {!recv_into}. It keeps storage for payloads of
    up to 64 KiB (or [max_bytes], if less), grown to the largest such
    payload received; a longer payload within [max_bytes] is read into
    storage of its own, which is garbage once the caller drops it. So a
    connection holds at most 64 KiB between requests. *)

val buffer : max_bytes:int -> buffer
(** An empty buffer accepting payloads of up to [max_bytes] (at least
    1). *)

type received =
  | Payload of Frame.header * Bytes.t
      (** the checksum-verified payload: the first [len] bytes (the
          header's) of the storage. When that is the buffer's own, the
          next {!recv_into} overwrites it. *)
  | Oversized of Frame.header
      (** the payload is longer than [max_bytes]: it was read in chunks
          through the buffer and dropped unverified, so the stream is
          still in step *)

val recv_into : ?deadline:float -> t -> buffer -> received
(** {!recv} into [buffer]: the same reads, deadline, checks and
    exceptions, but the payload is left in the buffer's storage rather
    than returned in a fresh frame. *)

val close : t -> unit
(** Idempotent. *)

val bytes_sent : t -> int

val bytes_recv : t -> int

val frames_sent : t -> int

val frames_recv : t -> int

val note_sent : t -> bytes:int -> frames:int -> unit
(** Fold externally-performed raw writes on {!fd} into the counters (the
    shard mesh's select loop does its own I/O). *)

val note_recv : t -> bytes:int -> frames:int -> unit

val pair : ?peer:string -> unit -> t * t
(** A connected Unix-domain socket pair, both ends in the calling
    process. *)

(** {2 Addresses}

    Every endpoint — the shard rendezvous ([CC_SHARD_ADDR]), the worker
    mesh, [cc_worker]'s argument and [cc_serve]'s [--addr] — is written
    in one grammar:

    - ["unix:PATH"], a Unix-domain socket;
    - ["tcp:HOST:PORT"], TCP;
    - bare ["HOST:PORT"], TCP too.

    Any other form raises [Invalid_argument] naming the address. Callers
    parse a string once with {!address}; {!dial}, {!listen} and {!unlink}
    take the parsed form.

    Every descriptor {!pair}, {!dial}, {!listen} and {!accept} open is
    close-on-exec, so a process started later (a re-exec'd shard worker)
    holds none of its parent's links. *)

type address = Unix_socket of string | Tcp of string * int

val address : string -> address
(** Parse an address in the grammar above. *)

val to_string : address -> string
(** The canonical form, ["unix:PATH"] or ["tcp:HOST:PORT"]; {!address}
    reads it back. *)

val is_tcp : address -> bool

val dial : peer:string -> address -> t
(** Connect to an address ([TCP_NODELAY] on TCP); [peer] labels error
    messages. Raises [Unix.Unix_error] when nothing listens there and
    [Invalid_argument] naming the address when its host does not
    resolve. *)

val listen : address -> Unix.file_descr * address
(** Bind and listen on an address, removing a stale socket file first.
    Returns the listening descriptor and the bound address, with a TCP
    port 0 resolved to the port the kernel picked — so {!dial} accepts it
    as is. *)

val unlink : address -> unit
(** Remove a Unix-domain address's socket file; a no-op for TCP and for
    a file already gone. A listener's file outlives its descriptor, so
    whoever bound the endpoint removes it when done — never a path only
    a peer reported. *)

val accept : ?tcp_nodelay:bool -> Unix.file_descr -> Unix.file_descr
(** Accept one connection on a listening descriptor. *)
