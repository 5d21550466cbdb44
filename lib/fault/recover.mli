(** The verify-and-retry recovery driver.

    [Recover.run ~check f] executes a computation, puts its output to a
    certified {!Check} validator, and re-executes on rejection. When the
    retry budget is exhausted it raises {!Fault_detected} with a
    machine-readable cause: the driver never returns an uncertified
    answer. [Recover.Make (R).run] is the same loop for a computation that
    moves messages on a runtime: every retry runs under the dedicated
    ["recovery"] ledger phase, so resilience cost is a visible line in
    [R.phases] and the BENCH JSON.

    Recovery decisions belong here, {e above} the algorithm layers:
    cc_lint rule L7 flags any charged layer that catches
    [Fault_detected] or invokes [Recover.run] itself. *)

exception
  Fault_detected of {
    workload : string;  (** the [~name] passed to {!Make.run} *)
    attempts : int;  (** executions performed (1 + retries) *)
    cause : string;  (** last checker counterexample or raised exception *)
  }

val recovery_phase : string
(** ["recovery"] — the ledger phase retries are charged under. *)

type 'a outcome = {
  value : 'a;  (** the certified result *)
  attempts : int;  (** executions performed, ≥ 1 *)
  recovered : bool;  (** [true] iff at least one retry was needed *)
}

val run :
  ?retries:int ->
  ?metrics:Metrics.t ->
  name:string ->
  check:('a -> Check.verdict) ->
  (unit -> 'a) ->
  'a outcome
(** [run ~retries ~metrics ~name ~check f] runs [f] up to [retries + 1]
    times ([retries] defaults to 2) until [check] certifies its output. An
    attempt fails when [check] returns a counterexample or when [f] raises
    (resource exhaustion excepted — [Out_of_memory] and [Stack_overflow]
    propagate). Counters [recovery.attempts], [recovery.retries],
    [recovery.recovered], and [recovery.exhausted] are bumped in [metrics]
    (default {!Metrics.disabled}). Raises {!Fault_detected} naming [name]
    when the budget is exhausted. *)

module Make (R : Runtime.S) : sig
  val run :
    ?retries:int ->
    ?metrics:Metrics.t ->
    name:string ->
    R.t ->
    check:('a -> Check.verdict) ->
    (unit -> 'a) ->
    'a outcome
  (** [run ~name rt ~check f] is {!val:run} with every re-execution
      wrapped in [R.with_phase rt recovery_phase]: the first attempt runs
      in the caller's current phase, retries' rounds land under
      {!recovery_phase}. *)
end
