(** Every [CC_*] knob the libraries read, parsed once, when the program
    starts. The knobs choose how a run executes, is accounted, checked or
    disturbed — never what it computes. Each reader ([Pool], [Shard],
    [Model], [Sanitize], [Clique.Sim], [Clique.Socket], [Fault.Schedule])
    takes its default from {!get}; tests replace the record with {!with_}.

    One grammar for every value: surrounding whitespace is trimmed, enum
    and boolean values are case-insensitive, and an unrecognized value
    falls back to the knob's default. *)

type model = Unicast | Broadcast
(** [Runtime.Model.t] re-exports this type. *)

type policy = Fail | Respawn | Drain
(** [Runtime.Shard.policy] re-exports this type. *)

type kernel = Arena | Legacy | Shard
(** [Clique.Sim.kernel] re-exports this type. *)

type t = {
  domains : int;  (** [CC_DOMAINS]: a positive integer, else 1. *)
  shards : int;  (** [CC_SHARDS]: a positive integer, else 1. *)
  model : model;
      (** [CC_MODEL]: [broadcast]/[bcast] or [unicast]/[clique]; else
          [Unicast]. *)
  sanitize : bool;
      (** [CC_SANITIZE]: [1], [true], [yes] or [on]; else [false]. *)
  policy : policy;
      (** [CC_SHARD_POLICY]: [fail], [respawn] or [drain]; else [Fail] —
          the fail-stop behaviour an operator already expects. *)
  timeout : float;  (** [CC_SHARD_TIMEOUT]: positive seconds, else 30. *)
  addr : string option;
      (** [CC_SHARD_ADDR]: the socket transport's rendezvous, in
          [Wire.Link]'s grammar; [None] means a Unix-domain socket under
          the temp directory. *)
  remote : int;  (** [CC_SHARD_REMOTE]: a non-negative integer, else 0. *)
  log : string option;
      (** [CC_SHARD_LOG]: a file the supervisor appends its events to. *)
  faults : string option;
      (** [CC_FAULTS], unparsed; [None] when unset or empty.
          [Fault.Schedule.of_env] parses it. *)
  kernel : kernel option;
      (** No environment knob. [None] means [Shard] when [shards > 1], else
          [Arena]. *)
}

val parse : (string -> string option) -> t
(** [parse lookup] reads every knob through [lookup], which maps a
    variable name to its value if set. Never raises. *)

val get : unit -> t
(** The record in force: the process environment as parsed at startup,
    or the one {!with_} installed. *)

val with_ : t -> (unit -> 'a) -> 'a
(** [with_ c f] runs [f] with {!get} returning [c], restoring the previous
    record afterwards (also on exceptions) — the test suites' one way to
    force configuration. Call it on the main domain. Spawned shard
    workers inherit the environment, not the record: the socket transport
    hands them the coordinator's domain count itself. *)
