(** Thread-safe LRU artifact cache keyed by fingerprint strings.

    The daemon keeps one of these per process: entries hold prepared
    solver handles, sparsifiers, and memoized pipeline reports, keyed by
    {!Fingerprint} strings. Each entry carries its own mutex serializing
    use of the artifact (prepared handles own mutable workspaces), so
    same-key jobs take turns while different-key jobs run concurrently;
    the table lock itself is never held across a build or a solve. *)

type 'v t

val create : cap:int -> 'v t
(** [cap] (clamped to ≥ 1) bounds the count of built entries: an entry
    whose build succeeds evicts least-recently-used entries until at most
    [cap] remain, and a failed build evicts nothing (a worker still
    holding an evicted entry finishes normally on its private
    reference). *)

val use : 'v t -> string -> build:(unit -> 'v) -> ('v -> 'a) -> 'a * bool
(** [use t key ~build f] looks up [key] — counting a hit iff the entry
    already existed — locks the entry, runs [build] if it has no value yet
    (exactly one caller ever builds a given entry), applies [f] to the
    value and returns [(f value, hit)]. Exceptions from [build] or [f]
    release the entry lock and propagate; [build]'s failure also drops
    the entry from the table, so an operand that cannot be built leaves
    nothing behind. *)

type stats = { entries : int; hits : int; misses : int; evictions : int }

val stats : 'v t -> stats
