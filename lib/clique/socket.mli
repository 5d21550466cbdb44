(** The multi-process clique: a {!Runtime.TRANSPORT} instance whose
    delivery runs on [CC_SHARDS] worker processes connected by framed
    sockets (DESIGN.md §11), under supervision (§14). This module is the
    coordinator; {!Socket_worker} is the worker process, and
    {!Socket_protocol} holds every frame kind and payload layout.

    Node IDs are partitioned into contiguous shard ranges
    ([Runtime.Shard]); each worker delivers its range on a private
    [Runtime.Arena], encoding its reply over its own domain pool
    ([CC_DOMAINS] applies per shard). Per round the coordinator writes one
    frame per worker, each worker writes at most one frame per ordered
    (shard, shard) pair that actually carries cross traffic — shard-level
    Lenzen batching — and replies once. The rendezvous is a Unix-domain
    socket under the temp directory by default; [CC_SHARD_ADDR] (or
    [?addr]) names another in {!Wire.Link}'s grammar — ["unix:PATH"],
    ["tcp:HOST:PORT"] or bare ["HOST:PORT"] — and the worker mesh follows
    its kind. With an explicit rendezvous, [CC_SHARD_REMOTE=k] reserves
    the last [k] shard slots for externally-launched workers
    ([bin/cc_worker], which may run on any host that can reach a TCP
    coordinator). Every [CC_*] default here comes from
    [Runtime.Config.get ()].

    Rounds are bit-identical to the in-process kernels: same inbox
    contents and order, same errors ({!Bandwidth_exceeded} with the same
    (src, dst, words, width, phase) fields even when detected inside a
    worker), same sanitizer transcripts.

    {2 Supervision}

    Every blocking wait is bounded by the session timeout ([?timeout],
    else [CC_SHARD_TIMEOUT], seconds, default 30), which every Config
    frame carries to the workers — a worker's own environment does not
    set it — and every frame carries the session {!epoch}. A worker
    death —
    EOF, a timeout, or a survivor's report of a dead mesh peer — is
    handled per [CC_SHARD_POLICY] ([?policy]):

    - [Fail] (default): raise [Runtime.Shard.Shard_down] naming the shard
      and round, exactly the pre-supervision behaviour.
    - [Respawn]: replace the dead worker (up to 3 attempts per death, with
      a pause of 0.2 s before the second, doubled before each later), bump the
      epoch, rebuild the mesh, and replay the interrupted operation from
      its retained input — output bit-identical to an undisturbed run.
    - [Drain]: mark the shard dead, merge its node range into a surviving
      neighbour (epoch-versioned [Runtime.Shard.Partition]), and continue
      degraded on the remaining workers.

    Each aborted-and-replayed attempt is charged one round to
    {!recovery_rounds}; [Runtime.Make] routes that delta to the
    ["recovery"] ledger phase, so resilience cost is a visible line item.
    Frames from a dead incarnation carry a stale epoch and are skipped on
    receipt. Bootstrap itself is deadline-bounded too: a worker that dies
    — or a client that connects but never completes the hello — yields a
    structured [Shard_down] with [round = 0], never a hang. *)

type t
(** A live sharded session: coordinator state, links, worker processes,
    and the epoch-versioned live partition. *)

exception
  Bandwidth_exceeded of {
    src : int;
    dst : int;
    words : int;
    width : int;
    phase : string;
  }
(** [Runtime.Mailbox.Bandwidth_exceeded], rebound. *)

val create :
  ?shards:int ->
  ?addr:string ->
  ?remote:int ->
  ?policy:Runtime.Shard.policy ->
  ?timeout:float ->
  int ->
  t
(** [create n] spawns the worker family by re-executing the current
    binary ([Unix.fork] is unavailable once any domain ever ran; the
    [CC_SHARD_WORKER] environment variable diverts the re-exec into the
    worker loop before the program's own entry point), then wires every
    link through a socket rendezvous: workers dial the coordinator's
    listener, receive the epoch-stamped live-partition config, build the
    full worker mesh, and confirm ready before the session goes live —
    the same config/ready round that recovery replays later.

    [shards] defaults to [Runtime.Shard.default_shards ()] and is clamped
    to [n]. [addr] defaults to [CC_SHARD_ADDR]; absent means Unix-domain
    sockets under the temp directory; a form outside {!Wire.Link}'s
    grammar raises [Invalid_argument] naming it. [remote] (default
    [CC_SHARD_REMOTE], else 0) reserves the last [remote] shard slots for
    external workers joining through the rendezvous — requires [addr],
    and bootstrap waits for them like any other worker, bounded by
    [timeout]. [policy] and [timeout] default to their environment knobs
    as documented above; a [timeout] that is not positive or is above
    [Runtime.Config.max_timeout] also takes the knob's value.
    [CC_SHARD_LOG=path] appends
    the supervisor's events to [path]. Every bootstrap failure is a
    structured [Runtime.Shard.Shard_down] with [round = 0]. *)

val close : t -> unit
(** Send shutdown frames, close links, reap the worker processes, and
    remove the session's socket files: the rendezvous and each spawned
    worker's Unix-domain mesh socket, at the paths the coordinator
    derives from the rendezvous. A remote worker removes its own; the
    mesh address it reports is never removed. Idempotent; registered
    sessions are closed automatically at exit. *)

val shutdown_all : unit -> unit
(** {!close} every live session (the test-suite and at-exit hook). *)

val shards : t -> int
(** Worker-slot count of this session (dead slots included). *)

val pids : t -> int list
(** Worker process IDs in shard order; [-1] for remote or reaped slots —
    the kill-matrix tests SIGKILL one to exercise the supervisor. *)

val n : t -> int
(** Number of clique nodes in the session. *)

val rounds : t -> int
(** Rounds elapsed so far (coordinator view), replays included. *)

val words_sent : t -> int
(** Total words ever sent, identical to the in-process kernels (an
    aborted attempt's words are never counted — only the successful
    replay's). *)

val recovery_rounds : t -> int
(** Of {!rounds}, how many were aborted by a worker death and replayed —
    the delta [Runtime.Make] charges to the ["recovery"] phase. *)

val epoch : t -> int
(** Current session epoch: 1 at bootstrap, bumped by every recovery
    event. Frames stamped with an older epoch are ignored on receipt. *)

val live_workers : t -> int
(** How many shard slots are currently alive (< {!shards} after drains). *)

val heartbeat : t -> unit
(** Probe every live worker now and run recovery for any that fails to
    ack within the session timeout; for tests, the E12 series and long
    idle periods. Heartbeat-triggered recovery charges no round (there
    was no operation to replay). *)

val default_width : int
(** 2, as on every clique kernel. *)

val unicast : bool
(** [true] — sharding changes the delivery engine, not the width rule. *)

val exchange :
  ?width:int -> t -> (int * int array) list array -> (int * int array) list array
(** One synchronous round over the workers; bit-identical inboxes to
    {!Sim.exchange} (the differential suite's core claim), including
    across a mid-round worker death recovered under [Respawn]/[Drain]. *)

val route :
  ?width:int -> t -> (int * int * int array) list -> (int * int array) list array
(** Lenzen routing stays a coordinator-side analytic path (identical cost
    model on every kernel; no charged workload drives it through the
    message stream). *)

val broadcast : ?width:int -> t -> int array array -> int array array
(** One-to-all broadcast, computed on the coordinator by
    {!Runtime.Mailbox.broadcast}: the same view, word count and width
    error as every in-process kernel, and no frame on the wire. Like
    {!route} it raises [Shard_down] on a session that is down, but it
    does not notice a worker that died since the last exchange: the next
    exchange or heartbeat does, and charges the recovery round there. *)

val stats : t -> (string * int) list
(** [wire.frames], [wire.bytes_sent], [wire.bytes_recv] (coordinator
    traffic plus worker-reported mesh traffic), [shard.crossings] (count
    of cross-shard messages), [shard.shards], and the supervision
    counters: [shard.live], [shard.epoch], [shard.deaths],
    [shard.respawn], [shard.drain], [shard.heartbeat.sent] / [.acked] /
    [.missed], [shard.recovery_rounds]. *)

val remote_worker : string -> unit
(** Run this process as a remote worker: dial the coordinator at the
    given address (in {!Wire.Link}'s grammar), join the hello rendezvous
    with a slot-assignment request, serve rounds until shutdown, then
    [Unix._exit]. Never returns. [CC_SHARD_TIMEOUT] of this process
    bounds only the dial retry and the slot assignment; the first Config
    brings the session's timeout. [bin/cc_worker] is a thin
    wrapper, the one remote launcher. *)
