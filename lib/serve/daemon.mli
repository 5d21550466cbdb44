(** The [cc_serve] batched-solve daemon (DESIGN.md §15).

    A listener domain owns all sockets — it accepts clients, reads
    {!Job.frame_job} frames, answers [Stats]/[Shutdown] inline, and
    enqueues everything else; [jobs] worker domains pop jobs, execute
    them through {!Exec} (shared artifact {!Cache} + the configured
    certification {!Exec.policy}), and reply on the requesting client's
    link. *)

type config = {
  addr : string;
      (** In {!Wire.Link}'s grammar: ["unix:PATH"], ["tcp:HOST:PORT"] or
          ["HOST:PORT"] (TCP port 0 picks an ephemeral port — read it
          back from {!addr}) *)
  jobs : int;  (** worker domains *)
  cache_cap : int;  (** LRU artifact-cache capacity (entries) *)
  policy : Exec.policy;
  max_bytes : int;  (** largest accepted request payload *)
}

val default_config : config
(** [addr = "unix:/tmp/cc-serve.sock"], 2 jobs, a 32-entry cache, policy
    [Off] ([none]) and an 8-MiB request bound — what [cc_serve] runs when
    no flag overrides a field. *)

type t

val start : config -> t
(** Bind, spawn the worker and listener domains, and return immediately.
    Raises [Unix.Unix_error] if the address cannot be bound and
    [Invalid_argument] if it is not in {!Wire.Link}'s grammar. *)

val addr : t -> string
(** The bound address in canonical form ({!Wire.Link.to_string}): a TCP
    port 0 request resolved to the port the kernel picked, a bare
    ["HOST:PORT"] written ["tcp:HOST:PORT"]. {!Client.connect} accepts it
    as is. *)

val stop : t -> unit
(** Request shutdown: stop accepting, let workers drain the queue, then
    exit. Idempotent; also triggered by a [Shutdown] job. *)

val wait : t -> unit
(** Join the listener and worker domains (blocks until {!stop} or a
    [Shutdown] job lands), then close all sockets and remove the
    Unix-domain socket file. *)
