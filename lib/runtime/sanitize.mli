(** Dynamic model-compliance sanitizer for {!Runtime.Make}.

    The paper's claims are deterministic round bounds over O(log n)-bit
    links, so a runtime in sanitizer mode checks, on every communication
    call:

    - {b width}: the per-ordered-pair word bound, asserted {e before} the
      transport runs so the raised {!Violation} names the offending phase;
    - {b determinism transcripts}: two running FNV-1a (64-bit) hashes. The
      {e shape} hash folds in phase, operation, width, rounds, words, and
      the {e sorted multiset} of payload sizes — invariant under node-ID
      permutation for label-oblivious algorithms, so a test can relabel the
      input and require a bit-identical hash. The {e content} hash
      additionally pins endpoints and payload words — the run-twice
      bit-identity check.
    - {b ledger drift}: the {!Cost.t} total must equal the rounds the
      transport counter moved since the runtime was created;
    - {b phase attribution}: once any named phase has been charged, further
      rounds under the default ["main"] phase are a violation (work is
      escaping the per-phase breakdown).

    Enabled per runtime via [Runtime.Make(T).create ~sanitize:true], or
    globally with the [CC_SANITIZE=1] environment variable (values [1],
    [true], [yes], [on]; see {!Config}). *)

exception Violation of { phase : string; kind : string; detail : string }
(** [kind] is one of ["width"], ["duplicate-dst"], ["broadcast-width"],
    ["phase-attribution"], ["ledger-drift"]. A printer is registered, so
    uncaught violations print readably. *)

val enabled_default : unit -> bool
(** What [create ?sanitize] defaults to: {!Config.get}'s [sanitize]. *)

type t
(** Per-runtime sanitizer state: transcript hashes plus the
    phase-attribution flag. *)

val create : unit -> t
(** Fresh sanitizer state (empty transcripts). *)

type op = Exchange | Route | Broadcast
(** The three runtime operations an event can record. *)

type transcript = { events : int; shape_hash : int64; content_hash : int64 }
(** Running determinism digests; see the module preamble for what each
    hash covers. *)

val transcript : t -> transcript
(** Snapshot of the current transcript hashes and event count. *)

val default_phase : string
(** ["main"]. *)

(** {1 Hooks called by [Runtime.Make]} *)

val exchange_event : (int * int array) list array -> int list * int list
(** [(sizes, content)] of an exchange's outboxes. *)

val route_event : (int * int * int array) list -> int list * int list
(** [(sizes, content)] of a route call's message multiset. *)

val broadcast_event : int array array -> int list * int list
(** [(sizes, content)] of a broadcast's per-node values. *)

val record :
  t ->
  phase:string ->
  op:op ->
  width:int ->
  rounds:int ->
  words:int ->
  sizes:int list ->
  content:int list ->
  unit
(** Fold one event into both transcript hashes. [sizes] is sorted
    internally; [content] is hashed in the given order. *)

val check_exchange :
  phase:string -> width:int -> (int * int array) list array -> unit
(** Pre-check an exchange's per-pair word totals against [width]; raises
    {!Violation} naming [phase] on overflow. *)

val check_exchange_broadcast :
  phase:string -> width:int -> (int * int array) list array -> unit
(** The broadcast-model width rule (DESIGN.md §13): every payload at most
    [width] words, and every source's outbox carries {e one} distinct
    payload — per-destination variation raises a ["broadcast-width"]
    {!Violation} naming [phase]. Used by runtimes whose transport says
    [unicast = false]. *)

val check_route :
  phase:string -> width:int -> (int * int * int array) list -> unit
(** Pre-check a route's payload sizes against [width]. *)

val check_broadcast : phase:string -> width:int -> int array array -> unit
(** Pre-check a broadcast's per-node value sizes against [width]. *)

val check_phase : t -> phase:string -> op:op -> rounds:int -> unit
(** Flag rounds landing on the default phase after a named phase charged
    (the phase-attribution rule). *)

val check_drift : phase:string -> ledger:int -> transport:int -> unit
(** Raise unless the ledger total equals the transport counter's movement
    (the dynamic face of lint rule L3). *)
