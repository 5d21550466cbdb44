(** The CONGEST model (§2.1): the congested clique's restricted sibling,
    where nodes may only exchange messages with their *topological*
    neighbours. Built so the §1.1 cross-model comparisons are concrete: the
    same node programs (see {!Programs}) run on both kernels through
    [Runtime.Make], and the CONGEST round formulas of the related-work
    algorithms are kept next to the clique ones.

    Like {!Sim}, this module is a {!Runtime.TRANSPORT} instance: delivery
    and bandwidth checks are shared with the clique kernel through
    {!Runtime.Mailbox} (at most [width] words per edge per direction per
    round); the only difference is the edge check. *)

type t
(** A CONGEST session: the graph topology plus the shared delivery core. *)

exception Not_an_edge of { src : int; dst : int }
(** Raised when a message is addressed across a non-edge of the topology. *)

val create : ?kernel:Sim.kernel -> Graph.t -> t
(** One node per vertex; links are exactly the graph's edges. [kernel]
    (default {!Sim.default_kernel}) picks the arena or legacy delivery
    engine, exactly as in {!Sim.create}. *)

val n : t -> int
(** Number of nodes (the graph's vertex count). *)

val rounds : t -> int
(** Rounds elapsed so far. *)

val words_sent : t -> int
(** Total words ever sent (message-complexity measure). *)

val recovery_rounds : t -> int
(** Always 0 — an in-process kernel has no workers to lose. *)

val default_width : int
(** 2 — same per-edge budget as {!Sim.default_width}. *)

val unicast : bool
(** [true] — per-edge budgets, like the clique kernels. *)

val exchange :
  ?width:int -> t -> (int * int array) list array -> (int * int array) list array
(** Same contract as {!Sim.exchange}, except messages must follow edges —
    raises {!Not_an_edge} otherwise. *)

val route :
  ?width:int -> t -> (int * int * int array) list -> (int * int array) list array
(** Same batching arithmetic as {!Sim.route}, but every [(src, dst)] pair
    must be an edge of the graph — raises {!Not_an_edge} otherwise. *)

val broadcast : ?width:int -> t -> int array array -> int array array
(** All-to-all in one round needs all-to-all links: raises {!Not_an_edge}
    unless the graph is complete, then behaves like {!Sim.broadcast}. *)

val bfs : t -> int -> int array
(** Distributed BFS by flooding — the generic {!Programs.Make} program run
    on this kernel; returns hop distances ([-1] unreached) and advances the
    round counter by exactly the eccentricity of the source — the [D] in
    every CONGEST bound. *)

val bellman_ford : t -> int -> float array
(** Distributed Bellman–Ford on the edge weights; [O(n)] rounds measured. *)

val diameter : Graph.t -> int
(** Hop diameter (oracle, not distributed): the [D] parameter of the
    reference formulas; [max_int] when disconnected. *)

(** {1 §1.1 reference round formulas}

    The CONGEST-model competitors the paper compares against. These are used
    by the model-comparison bench (E7b) to show that the clique algorithms
    are "clearly always faster" than their CONGEST counterparts, as §1.1
    argues. Constants are dropped, like every reference curve (DESIGN.md). *)

val fglp_maxflow_rounds : n:int -> m:int -> d:int -> u:int -> int
(** FGLP+21: [Õ(m^{3/7}U^{1/7}(n^{o(1)}(√n+D) + √n·D^{1/4}) + √m)]. *)

val fv22_bcc_mcf_rounds : n:int -> int
(** FV22 Broadcast Congested Clique min-cost flow: [Õ(√n)] (randomized). *)
