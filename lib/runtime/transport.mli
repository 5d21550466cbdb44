(** The [TRANSPORT] signature a message kernel implements so that
    {!Runtime.Make} can drive node programs on it; see the implementation
    file for the full per-operation contracts. Instances live in
    [lib/clique] ([Sim], [Congest], [Broadcast], [Socket]) and
    [Fault.Inject]. A transport only moves messages: its round counter
    advances by measured communication alone, never by an analytic
    charge. The signature carries no name and no kernel counters; the
    concrete kernels that keep counters ([Sim], [Broadcast], [Socket])
    export their own [stats]. *)

module type S = sig
  type t
  (** The kernel's mutable state (nodes, counters, topology). *)

  val n : t -> int
  (** Number of nodes. *)

  val default_width : int
  (** Per-ordered-pair word budget used when a call omits [?width]. *)

  val unicast : bool
  (** Whether one source may ship distinct per-destination payloads in a
      single round. [false] on broadcast-model kernels, where every node
      sends one payload per round, heard by everyone. *)

  val rounds : t -> int
  (** Rounds elapsed on this kernel so far. *)

  val words_sent : t -> int
  (** Total words ever sent (the message-complexity measure). *)

  val recovery_rounds : t -> int
  (** Of {!rounds}, how many were consumed replaying operations after a
      worker death (DESIGN.md §14). Always 0 on in-process kernels; the
      runtime charges these to the ["recovery"] ledger phase instead of
      the phase the interrupted operation ran under. *)

  val exchange :
    ?width:int ->
    t ->
    (int * int array) list array ->
    (int * int array) list array
  (** One synchronous round: [outboxes.(v)] is node [v]'s [(dst, payload)]
      list; returns the inboxes. *)

  val route :
    ?width:int ->
    t ->
    (int * int * int array) list ->
    (int * int array) list array
  (** Deliver an arbitrary [(src, dst, payload)] multiset (Lenzen-batched
      on the clique kernel). *)

  val broadcast : ?width:int -> t -> int array array -> int array array
  (** Every node sends [values.(v)] to all others; returns the shared
      global view. *)
end
