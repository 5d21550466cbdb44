(** Shared delivery and bandwidth-check core of every {!Transport.S}
    instance. The kernels ([Sim], [Congest]) differ only in which ordered
    pairs may talk — expressed through the [?check] callback — and in how
    they count rounds; the per-pair word accounting, load computation, and
    batching arithmetic live here exactly once. *)

exception
  Bandwidth_exceeded of {
    src : int;
    dst : int;
    words : int;
    width : int;
    phase : string;
  }
(** A round would carry more than [width] words over the ordered pair
    [(src, dst)] ([dst = -1] for a broadcast payload that is itself too
    wide). [phase] is the runtime phase current when the delivery ran (see
    {!set_context}), so the error names where in the pipeline it fired. A
    printer is registered: uncaught, the exception prints all five
    fields. *)

val set_context : string -> unit
(** [set_context phase] records the phase delivery errors should name.
    Called by [Runtime.Make] around every transport call; defaults to
    ["main"]. *)

val current_context : unit -> string
(** The phase last recorded with {!set_context} (phase-scoped fault
    schedules read it to decide whether a rule applies). *)

(** {2 Delivery errors}

    Every kernel builds its delivery errors with these, so messages and
    fields are byte-identical across kernels. *)

val check_outboxes : n:int -> 'a array -> unit
(** Raises [Invalid_argument] unless there is one outbox per node. *)

val check_values : n:int -> 'a array -> unit
(** Raises [Invalid_argument] unless there is one broadcast value per
    node. *)

val out_of_range_message : src:int -> dst:int -> width:int -> string
(** The [Invalid_argument] message for a destination outside [0, n),
    naming the current phase. *)

val bandwidth_exceeded : src:int -> dst:int -> words:int -> width:int -> 'a
(** Raises {!Bandwidth_exceeded} with the current phase. *)

val deliver :
  n:int ->
  width:int ->
  ?check:(src:int -> dst:int -> unit) ->
  (int * int array) list array ->
  (int * int array) list array * int
(** [deliver ~n ~width outboxes] performs one round's worth of delivery:
    validates destinations, runs [check] on every (src, dst) pair (the hook
    where [Congest] rejects non-edges), enforces that the words accumulated
    over each ordered pair stay ≤ [width], and returns
    [(inboxes, total_words)]. *)

val route :
  n:int ->
  width:int ->
  ?check:(src:int -> dst:int -> unit) ->
  (int * int * int array) list ->
  (int * int array) list array * int * int
(** [route ~n ~width msgs] delivers an arbitrary [(src, dst, payload)]
    multiset and returns [(inboxes, total_words, batches)] where
    [batches = max 1 ⌈load / (n·width)⌉] and [load] is the maximum number of
    words any single node sends or receives. A single payload wider than
    [width] words does not fit any message and raises
    {!Bandwidth_exceeded}. *)

val broadcast :
  n:int -> width:int -> int array array -> int array array * int
(** [broadcast ~n ~width values] checks every [values.(v)] fits in [width]
    words and returns [(copy of values, total_words)] with
    [total_words = Σ (n-1)·|values.(v)|]. *)
