(** One communication substrate for the code that moves messages.

    The congested clique measures complexity in synchronous rounds (§2.1).
    This library defines the {!TRANSPORT} signature a message kernel must
    implement (the clique itself and its CONGEST sibling live in
    [lib/clique]), and the {!Make} functor that turns a transport into a
    {e runtime}: every communication call is measured against the
    transport's own counters and charged into a single phase-tagged
    {!Cost.t} ledger. Node programs written against {!S} run unchanged on
    every kernel and always produce the same per-phase round breakdown.
    Layers that only price rounds analytically hold a plain {!Cost.t}
    instead. *)

module Config = Config
module Cost = Cost
module Mailbox = Mailbox
module Sanitize = Sanitize
module Arena = Arena
module Pool = Pool
module Shard = Shard
module Model = Model

module type TRANSPORT = Transport.S

(** The runtime interface node programs are written against. *)
module type S = sig
  type transport
  (** The underlying kernel state. *)

  type t

  val create : ?sanitize:bool -> ?domains:int -> transport -> t
  (** A fresh runtime (empty ledger, current phase ["main"]) over an
      existing transport. [sanitize] (default {!Sanitize.enabled_default},
      i.e. the [CC_SANITIZE] environment variable) turns on the dynamic
      model-compliance checks and determinism transcripts of {!Sanitize}.
      [domains] (default {!Pool.default_domains}, i.e. the [CC_DOMAINS]
      environment variable) is the parallelism {!exchange_map} fans
      per-node steps over — results are bit-identical for every value. *)

  val transport : t -> transport
  (** The kernel this runtime wraps (shared, not copied). *)

  val n : t -> int
  (** Number of nodes of the underlying kernel. *)

  val sanitized : t -> bool
  (** Whether this runtime runs the dynamic {!Sanitize} checks. *)

  val sanitizer : t -> Sanitize.t option
  (** The sanitizer state (for reading transcript hashes), if enabled. *)

  val rounds : t -> int
  (** Total rounds this runtime has measured (= ledger total). *)

  val words : t -> int
  (** Total words sent through this runtime. *)

  val phases : t -> (string * int) list
  (** Per-phase round totals, sorted by phase name. *)

  val phase_rounds : t -> string -> int
  (** Rounds charged under one phase (0 if never charged). *)

  val with_phase : t -> string -> (unit -> 'a) -> 'a
  (** [with_phase t p f] runs [f] with the current phase set to [p],
      restoring the previous phase afterwards (also on exceptions). *)

  val exchange :
    ?width:int ->
    t ->
    (int * int array) list array ->
    (int * int array) list array
  (** {!Transport.S.exchange}, measured into the ledger under the current
      phase. *)

  val exchange_map :
    ?width:int ->
    t ->
    (int -> (int * int array) list) ->
    (int * int array) list array
  (** [exchange_map t step] is [exchange t [|step 0; ...; step (n-1)|]]
      with the per-node outbox construction fanned over the runtime's
      domain pool (fixed contiguous chunks). [step v] must be a proper
      node program step: it may read shared pre-round state but must not
      mutate anything other than node [v]'s own slots. Rounds, words, and
      sanitizer transcripts are bit-identical to the sequential run for
      every domain count. *)

  val route :
    ?width:int ->
    t ->
    (int * int * int array) list ->
    (int * int array) list array
  (** {!Transport.S.route}, measured into the ledger. *)

  val broadcast : ?width:int -> t -> int array array -> int array array
  (** {!Transport.S.broadcast}, measured into the ledger. *)
end

module Make (T : TRANSPORT) : S with type transport = T.t
(** The functor is applicative: [Make (Sim)] names the same types wherever
    it is applied, so instances can be shared across modules. *)
