(** A process-local metrics registry: named counters, gauges, power-of-two
    round histograms, and wall-clock spans.

    The registry is the collection point of the observability layer: the
    fault layer counts injections and retries into one, and the bench
    harness ingests each row's round breakdown ({!ingest_phases}) and
    serializes one registry per experiment into the [BENCH_E<k>.json]
    files via {!to_json}.

    Overhead discipline: every mutation on a metric obtained from a
    disabled registry (or from {!disabled}) is a single boolean test — no
    allocation, no hashing — so instrumented code paths can keep their
    metric handles unconditionally. Instruments obtained from a disabled
    registry are shared dummies and are never registered.

    Determinism: the registry performs no I/O and reads no clock except in
    {!time}, which instrumented {e charged} code must not call (wall-clock
    is never a cost measure — cc_lint rule L2); {!to_json} sorts every
    name, so serialization is deterministic. *)

module Json = Json
(** Re-export: [Metrics.Json] is the library's JSON tree ({!Json}). *)

type t
(** A registry. *)

val create : ?enabled:bool -> unit -> t
(** A fresh registry, [enabled] by default. *)

val disabled : t
(** A shared always-disabled registry: every instrument obtained from it is
    a no-op dummy. *)

val enabled : t -> bool
(** Whether mutations on this registry's instruments take effect. *)

val reset : t -> unit
(** Zero every registered instrument (registration is kept). *)

(** {1 Counters} *)

type counter
(** A monotonically increasing integer. *)

val counter : t -> string -> counter
(** Get or create the counter named [name]. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1, must be ≥ 0) to the counter. *)

val counter_value : counter -> int
(** Current value. *)

(** {1 Gauges} *)

type gauge
(** A last-write-wins float. *)

val gauge : t -> string -> gauge
(** Get or create the gauge named [name]. *)

val set : gauge -> float -> unit
(** Overwrite the gauge's value. *)

val gauge_value : gauge -> float
(** Current value (0 before any {!set}). *)

(** {1 Histograms} *)

type histogram
(** A 16-bucket power-of-two histogram of non-negative integer samples:
    bucket 0 counts zeros, bucket [b ≥ 1] counts samples in
    [[2^{b-1}, 2^b)]. *)

val histogram : t -> string -> histogram
(** Get or create the histogram named [name]. *)

val observe : histogram -> int -> unit
(** Record one sample (clamped to bucket 0 if negative). *)

val histogram_buckets : histogram -> int array
(** A copy of the 16 bucket counts. *)

(** {1 Wall-clock spans} *)

type span
(** Aggregated wall-clock timings: count, total, min, max (seconds). *)

type span_stats = { count : int; total_s : float; min_s : float; max_s : float }
(** Snapshot of a span's aggregates; [min_s]/[max_s] are 0 when
    [count = 0]. *)

val span : t -> string -> span
(** Get or create the span named [name]. *)

val time : span -> (unit -> 'a) -> 'a
(** [time sp f] runs [f] and folds its wall-clock duration into [sp]
    (exceptions propagate, the duration is still recorded). On a disabled
    registry the clock is never read. *)

val add_duration : span -> float -> unit
(** Fold an externally measured duration (seconds, ≥ 0) into the span —
    the hook for Bechamel-measured wall-clock stats. *)

val span_stats : span -> span_stats
(** Current aggregates. *)

(** {1 Ingestion and export} *)

val ingest_phases : t -> prefix:string -> (string * int) list -> unit
(** [ingest_phases t ~prefix phases] adds each [(phase, rounds)] pair to
    counter [prefix ^ "." ^ phase] and the sum to [prefix ^ ".total"] —
    how a [Cost.t] ledger's per-phase breakdown lands in a registry. *)

val to_json : t -> Json.t
(** The whole registry as one object with [counters], [gauges],
    [histograms] and [spans] sub-objects, each sorted by name. Histograms
    serialize as bucket arrays; spans as [{count, total_s, min_s, max_s}]. *)
