(** A phase-tagged round ledger.

    The congested clique measures complexity in synchronous rounds (§2.1).
    Subroutines that we execute centrally-but-faithfully (matrix–vector
    products, broadcasts, internal solves, the IPM control flow) charge
    into a ledger exactly the rounds the paper's analysis assigns them.
    Genuinely message-passing subroutines run on a {!Runtime.Make}
    runtime, which charges the rounds it measures on its transport into a
    ledger of its own. Each charge is tagged with a phase name so
    experiment reports can break a total down (e.g. "sparsify" vs
    "chebyshev" vs "augment"). *)

type t
(** A mutable ledger: one running total plus a per-phase breakdown. *)

val create : unit -> t
(** A fresh, empty ledger. *)

val charge : t -> phase:string -> int -> unit
(** [charge t ~phase r] adds [r] rounds under [phase]. [r ≥ 0]. *)

val rounds : t -> int
(** Total rounds charged so far. *)

val phase_rounds : t -> string -> int
(** Rounds charged under one phase (0 for a phase never charged). *)

val phases : t -> (string * int) list
(** All phases with their totals, sorted by phase name. *)

val recovery_phase : string
(** ["recovery"] — the phase every replayed or retried round is charged
    to, by both [Fault.Recover]'s verify-and-retry driver and the shard
    supervisor's round replay ({!Runtime.Make} splits the transport's
    [recovery_rounds] delta off into it automatically). *)

(** {1 Model constants and cost formulas}

    These are the concrete round counts the paper cites; they are defined in
    one place so that the accounting in algorithms and the reference curves
    in benches cannot drift apart. *)

val lenzen_routing_rounds : int
(** 16 — routing any multiset with ≤ n sends and receives per node
    (Lenzen 2013, as used in Theorem 1.4's proof). *)

val broadcast_rounds : int
(** 1 — every node sends one word to every other node. *)

val matvec_rounds : int
(** 1 — a Laplacian matrix–vector product: node [i] holds row [i] and [x_i],
    sends [x_i] to its neighbours, sums locally. *)

val apsp_rounds : int -> int
(** [⌈n^0.158⌉] — the CKKL'19 distance-product round bound charged per
    (approximate) APSP/SSSP call (see DESIGN.md substitution 4). *)

val log2_ceil : int -> int
(** [⌈log₂ k⌉] for [k ≥ 1] (0 for [k ≤ 1]) — the word-size arithmetic used
    throughout the cost formulas. *)

val gather_rounds : n:int -> m:int -> bits_per_edge:int -> int
(** Rounds for the trivial algorithm of §1.1: make all [m] edges (each
    [bits_per_edge/⌈log n⌉] words) globally known — [O(n log U)] total. *)

val bcast_gather_rounds : n:int -> m:int -> bits_per_edge:int -> int
(** The same gather in the Broadcast Congested Clique (arXiv:2205.12059):
    [⌈m·words/n⌉] rounds, since a gather is receive-bound and per round
    every node hears all [n] broadcast words — broadcast loses essentially
    nothing on globally-known steps (DESIGN.md §13). *)
