(** The standard runtime instantiations.

    [Runtime.Make] is applied exactly once per kernel here, so every layer
    of the repo shares the same runtime types: {!On_sim} is the congested
    clique ({!Sim} under the ledger), {!On_congest} its CONGEST sibling,
    {!On_bcast} the Broadcast Congested Clique, and the [*_programs]
    modules are the generic node programs ({!Programs}) instantiated on
    each. Sharded runs go through {!On_sim} with the [Shard] kernel, whose
    session {!with_clique} closes; a test that needs a raw {!Socket}
    session applies [Runtime.Make (Socket)] itself.

    A runtime is for code that moves messages: the node programs,
    Borůvka and Euler's Cole–Vishkin coloring. Its ledger holds exactly
    the rounds it measured on the transport. The charged layers
    (sparsifier, solver, IPMs, rounding, the orientation's outer ledger)
    move none and charge a plain {!Runtime.Cost.t}. *)

module On_sim : Runtime.S with type transport = Sim.t
(** The congested-clique runtime — {!Sim} under the cost ledger. *)

module On_congest : Runtime.S with type transport = Congest.t
(** The CONGEST-model sibling — {!Congest} under the same ledger. *)

module On_bcast : Runtime.S with type transport = Broadcast.t
(** The runtime over the Broadcast Congested Clique kernel
    ({!Broadcast}): one payload per source per round, heard by everyone.
    Its sanitizer enforces the broadcast width rule (DESIGN.md §13). *)

module Sim_programs : Programs.S with type runtime = On_sim.t
(** The generic node programs ({!Programs}) on the clique runtime. *)

module Congest_programs : Programs.S with type runtime = On_congest.t
(** The generic node programs on the CONGEST runtime. *)

module Bcast_programs : Programs.S with type runtime = On_bcast.t
(** The generic node programs on the broadcast kernel — same results as
    on every unicast kernel (the receivers filter the wider inboxes). *)

type t = On_sim.t
(** The clique runtime — what code that moves messages carries. *)

val clique : int -> t
(** [clique n] is a fresh runtime over a fresh [n]-node clique. *)

val congest : Graph.t -> On_congest.t
(** [congest g] is a fresh runtime over a fresh CONGEST kernel on [g]. *)

val bcast : int -> On_bcast.t
(** [bcast n] is a fresh runtime over a fresh [n]-node broadcast clique. *)

val with_clique : int -> (t -> 'a) -> 'a
(** [with_clique n f] runs [f] on a fresh [clique n], then closes its
    socket session (if the [Shard] kernel made one) even if [f] raises, so
    a per-call runtime leaves no workers or descriptors behind. *)

val rounds : t -> int
(** {!Runtime.S.rounds}: total rounds measured on the transport. *)

val words : t -> int
(** {!Runtime.S.words}: total words sent on the transport. *)
