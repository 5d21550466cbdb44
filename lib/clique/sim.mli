(** Synchronous message-passing kernel — the congested clique itself (§2.1).

    [n] nodes, identified [0..n-1], proceed in synchronous rounds. In one
    round every ordered pair of nodes may exchange one message of
    [O(log n)] bits, modeled as at most [width] machine words per ordered
    pair ([width = 2] by default: a tag word plus a value word). Exceeding
    the budget raises {!Bandwidth_exceeded} — algorithms cannot cheat.

    This module is a {!Runtime.TRANSPORT} instance (delivery and bandwidth
    checks live in {!Runtime.Mailbox}); node programs run on it through
    [Runtime.Make (Sim)] — see {!Kernel}. The genuinely distributed
    subroutines (Borůvka, the Eulerian-orientation coloring) have their
    round counts *measured* here, not charged. *)

type t
(** A clique session: delivery state, round counter, word counter. *)

type kernel = Runtime.Config.kernel = Arena | Legacy | Shard
(** Which delivery engine [exchange] runs on. [Arena] (the default) is the
    reusable-buffer counting-sort kernel of {!Runtime.Arena}; [Legacy] is
    the list-and-[Hashtbl] {!Runtime.Mailbox.deliver} path; [Shard] is the
    multi-process socket transport of {!Socket}, forking
    [Runtime.Shard.default_shards] workers at [create]. All three are
    bit-identical in rounds, words, inbox contents, errors, and sanitizer
    transcripts — the differential suite [test_kernel_equiv] holds them to
    that. *)

exception
  Bandwidth_exceeded of {
    src : int;
    dst : int;
    words : int;
    width : int;
    phase : string;
  }
(** The same exception as {!Runtime.Mailbox.Bandwidth_exceeded} (rebound),
    so either name catches it. *)

val create : ?kernel:kernel -> int -> t
(** [create n] makes a clique of [n] nodes running on [kernel] (default
    {!default_kernel}). The arena kernel sizes its buffers once here and
    reuses them every round. *)

val default_kernel : unit -> kernel
(** The kernel [create] picks when [?kernel] is omitted:
    [Runtime.Config.get ()]'s [kernel] if set, else [Shard] when its
    [shards > 1] (i.e. [CC_SHARDS] asks for a multi-process run), else
    [Arena]. [Legacy] is chosen only explicitly ([create ~kernel:Legacy]
    or a [Runtime.Config.with_] record naming it), as the differential
    suite's oracle and E9's comparison leg. *)

val n : t -> int

val rounds : t -> int
(** Rounds elapsed so far. *)

val words_sent : t -> int
(** Total words ever sent (message-complexity measure). *)

val recovery_rounds : t -> int
(** Rounds spent replaying operations after a worker death — nonzero only
    on the sharded engine (delegates to [Socket.recovery_rounds]). *)

val default_width : int
(** 2 — a tag word plus a value word per ordered pair per round. *)

val unicast : bool
(** [true] — every ordered pair gets its own [width]-word budget. *)

val exchange :
  ?width:int -> t -> (int * int array) list array -> (int * int array) list array
(** [exchange t outboxes] performs one synchronous round. [outboxes.(v)] is
    node [v]'s list of [(dst, payload)] messages; the result [inboxes.(v)] is
    the list of [(src, payload)] received by [v], in unspecified order.
    Raises {!Bandwidth_exceeded} if some ordered pair carries more than
    [width] words (default 2). Increments {!rounds} by 1. *)

val route :
  ?width:int -> t -> (int * int * int array) list -> (int * int array) list array
(** [route t msgs] delivers an arbitrary multiset of [(src, dst, payload)]
    messages using the Lenzen routing subroutine. One batch moves up to
    [n·width] words per node, so the round counter advances by
    [⌈load / (n·width)⌉ · Cost.lenzen_routing_rounds] where [load] is the
    maximum number of words any single node sends or receives (a
    within-bound batch costs exactly 16 rounds, like the paper's step 2b).
    A single payload longer than [width] words does not fit any message and
    raises {!Bandwidth_exceeded}; out-of-range endpoints raise
    [Invalid_argument]. *)

val broadcast : ?width:int -> t -> int array array -> int array array
(** [broadcast t values] has every node send [values.(v)] (at most [width]
    words, default 2 — enforced, raising {!Bandwidth_exceeded}) to all
    others; returns the array of all values (the global view every node now
    shares). One round. *)

val session : t -> Socket.t option
(** The socket session behind a [Shard]-kernel instance ([None] on the
    in-process kernels) — what {!Kernel.with_clique} closes, and the hook
    tests use to close sessions or kill workers deliberately. *)

val stats : t -> (string * int) list
(** The arena's [kernel.arena.*] counters ({!Runtime.Arena.stats}); the
    socket transport's [wire.*]/[shard.*] counters on the [Shard] kernel;
    empty on the legacy kernel. *)
