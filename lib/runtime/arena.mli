(** The arena message kernel: a reusable per-round delivery buffer.

    One [Arena.t] is sized once per simulation and reused every round: the
    flat message table (parallel [src]/[dst]/payload-reference arrays), the
    counting-sort scratch, and the per-link width accumulator are {e
    reset}, not reallocated, on each {!deliver}. Delivery is a counting
    sort into contiguous per-destination slices, so building the inboxes is
    two linear passes with no hashing and no per-message key allocation —
    unlike the legacy {!Mailbox.deliver} path, which pays a [Hashtbl]
    lookup per message.

    Per-link width accounting needs only [O(n)] memory: delivery walks one
    source's outbox at a time, so a length-[n] per-destination accumulator,
    stamped with the source being walked, holds every running pair total.
    Moving to the next source or the next round clears nothing.

    Semantics are bit-identical to {!Mailbox.deliver}: same validation
    order, same error payloads, same inbox contents in the same list
    order, and the same sharing of sender payload arrays. The differential
    suite ([test_kernel_equiv]) asserts this across workloads. *)

type t
(** A delivery arena for a fixed number of nodes. *)

val create : n:int -> unit -> t
(** [create ~n ()] sizes an arena for [n] nodes: [O(n)] words, whatever
    [n] is. *)

val n : t -> int
(** The node count the arena was sized for. *)

val deliver :
  t ->
  width:int ->
  ?check:(src:int -> dst:int -> unit) ->
  (int * int array) list array ->
  (int * int array) list array * int
(** Drop-in replacement for {!Mailbox.deliver} over this arena's [n]:
    validates destinations in the same order, runs [check] on every
    (src, dst), enforces the per-ordered-pair [width] bound (raising
    {!Mailbox.Bandwidth_exceeded} with identical fields), and returns
    [(inboxes, total_words)] with inbox lists in the legacy order. *)

val stats : t -> (string * int) list
(** Cumulative [kernel.arena.*] counters, sorted by name: [resets] (rounds
    delivered), [grows] (capacity doublings), [slot_words_reused] (message
    slots served from already-allocated capacity). Surfaced by
    [Clique.Sim.stats], the clique kernel that delivers on an arena. *)
