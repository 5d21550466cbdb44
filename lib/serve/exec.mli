(** Job execution for the [cc_serve] daemon: artifact cache +
    certification policy (DESIGN.md §15).

    Solve jobs cache the {e prepared} solver handle (sparsifier, κ
    estimate, workspaces) keyed by graph fingerprint, so repeat solves on
    the same graph skip straight to the zero-allocation Chebyshev/CG
    iteration; sparsify / max-flow / MST jobs memoize the certified result
    itself. The [CC_SERVE_POLICY] certification policy decides what
    happens between computing an answer and returning it. *)

module Json = Metrics.Json

type policy =
  | Off  (** trust the pipeline; return answers unchecked *)
  | Verify  (** run the {!Fault.Check} validator; refuse on [Fail] *)
  | Recover
      (** re-run uncertified jobs through {!Fault.Recover} (retry budget 2)
          and refuse only when the budget is exhausted *)

val policy_of_string : string -> (policy, string) result
(** Accepts ["none"]/["off"]/[""], ["verify"], ["recover"]. *)

val policy_name : policy -> string

type artifact
(** What the daemon's {!Cache} stores: a solve closure over a prepared
    solver handle (either method), or a memoized certified report per
    other job kind. *)

type outcome = {
  fields : (string * Json.t) list;  (** the response's [result] object *)
  rounds : int;  (** charged congested-clique rounds *)
  cache : [ `Hit | `Miss | `Bypass ];
  attempts : int;
      (** executions performed for this request (0 on a memoized hit) *)
  recovered : bool;  (** [true] iff a retry was needed *)
}

val run :
  policy:policy -> cache:artifact Cache.t -> Job.t -> (outcome, string) result
(** Execute one job. [Error] carries a client-facing refusal message —
    certification failures, recovery exhaustion, and invalid instances all
    land here; control payloads ([Stats]/[Shutdown]) are rejected because
    the listener answers them inline. Thread-safe: same-graph jobs
    serialize on the cache entry's lock, everything else runs
    concurrently. *)
