(** The Broadcast Congested Clique kernel — a {!Runtime.TRANSPORT}
    instance of the model Forster & de Vos carry the Laplacian paradigm
    into (PAPERS.md, arXiv:2205.12059); see DESIGN.md §13.

    Per round every node puts {e one} message of at most [width] words on
    the air, and every node (the sender included) hears all [n] of them.
    The width rule therefore moves from the ordered pair to the source:
    an outbox may list many destinations, but all listed payloads must be
    the same words — that single payload is what everyone receives. A
    source shipping two structurally distinct payloads in one round
    raises {!Multi_payload} naming the offending phase (the sanitizer's
    ["broadcast-width"] check is the pre-flight twin of this error).

    Send bandwidth per node drops by a factor of [n] relative to the
    unicast clique, but {e receive} bandwidth is identical — every node
    still hears [n] payloads of [width] words per round — which is why
    the receive-bound pipeline steps (gather, matvec against a globally
    known iterate) cost the same rounds under both models while the
    send-bound ones are recharged (EXPERIMENTS.md E11). *)

type t
(** Kernel state: node count and the round/word/collapse counters. *)

exception
  Bandwidth_exceeded of {
    src : int;
    dst : int;
    words : int;
    width : int;
    phase : string;
  }
(** [Runtime.Mailbox.Bandwidth_exceeded], rebound; raised with [dst = -1]
    when a single payload exceeds [width] words. *)

exception Multi_payload of { src : int; phase : string; distinct : int }
(** Node [src] tried to ship [distinct] (≥ 2) different payloads in one
    round — illegal here regardless of their sizes. [phase] is the
    runtime phase current when the exchange ran. A printer is
    registered. *)

val create : int -> t
(** [create n] makes a broadcast clique of [n] nodes ([n > 0]). *)

val n : t -> int
(** Number of nodes. *)

val rounds : t -> int
(** Rounds elapsed. *)

val words_sent : t -> int
(** Total words ever put on the air, counted received-side like the
    unicast kernels: each broadcast payload contributes
    [(n-1)·|payload|]. *)

val recovery_rounds : t -> int
(** Always 0 — an in-process kernel has no workers to lose. *)

val default_width : int
(** 2, like every clique kernel — the per-{e source} budget here. *)

val unicast : bool
(** [false] — this is the broadcast model. *)

val exchange :
  ?width:int -> t -> (int * int array) list array -> (int * int array) list array
(** One synchronous round. Each source's outbox is collapsed to its single
    on-air payload (listed destinations are advisory: everyone hears it);
    the result gives {e every} node the same src-ascending
    [(src, payload)] list over all sources that sent anything. Raises
    {!Multi_payload} on a multi-payload outbox, {!Bandwidth_exceeded}
    ([dst = -1]) on an oversized payload, [Invalid_argument] on bad
    destinations. One round. *)

val route :
  ?width:int -> t -> (int * int * int array) list -> (int * int array) list array
(** Deliver an arbitrary [(src, dst, payload)] multiset by sequential
    broadcasts: [max 1 (max_v #messages(v))] rounds, since each source
    airs one message per round. The returned inboxes keep the unicast
    contract — each message reaches its addressed destination only — so
    analytic callers behave identically while paying broadcast cost. *)

val broadcast : ?width:int -> t -> int array array -> int array array
(** The model's native operation: identical semantics and cost to the
    unicast kernels ({!Runtime.Cost.broadcast_rounds} = one round). *)

val stats : t -> (string * int) list
(** [kernel.bcast.exchanges] (exchange calls) and [kernel.bcast.collapsed]
    (redundant per-destination entries merged into one on-air payload). *)
