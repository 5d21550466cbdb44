(** A persistent domain pool for intra-round parallelism.

    Node programs within one synchronous round are independent by the
    model's definition, so a runtime may evaluate per-node steps on
    several OCaml domains ([Runtime.S.exchange_map]). Pools are process
    global and cached by size: the worker domains are spawned once on
    first use and parked on a condition variable between jobs, so a round
    costs two lock round-trips, not a domain spawn. All pools are joined
    at process exit.

    Determinism: {!run} always partitions [0..n-1] into [size] fixed
    contiguous chunks ([chunk_bounds]); each worker writes only to the
    slots of its own chunk, and {!run} returns only after every chunk
    completed — so the filled result array is independent of scheduling,
    and a parallel run is bit-identical to a sequential one. *)

type t
(** A pool of worker domains (the caller counts as worker 0). *)

val default_domains : unit -> int
(** The domain count a runtime uses when [create] omits [~domains]:
    {!Config.get}'s [domains] ([CC_DOMAINS], default 1). *)

val get : int -> t
(** [get k] returns the process-wide pool of [k] domains, spawning its
    [k-1] workers on first request. [k <= 1] yields the sequential pool
    (no domains are ever spawned for it). *)

val size : t -> int
(** Total parallelism including the caller, ≥ 1. *)

val chunk_bounds : size:int -> n:int -> int -> int * int
(** [chunk_bounds ~size ~n w] is the half-open range [(lo, hi)] of items
    worker [w] processes out of [0..n-1] — the fixed balanced partition
    [lo = w*n/size], [hi = (w+1)*n/size]. *)

val run : t -> n:int -> (int -> int -> unit) -> unit
(** [run t ~n f] calls [f lo hi] once per chunk of the fixed partition of
    [0..n-1], chunks executing concurrently on the pool's domains (the
    caller runs chunk 0). [f] must only write state owned by its own
    chunk. Exceptions raised by any chunk are re-raised in the caller
    after all chunks finished. Not reentrant: [f] must not call {!run} on
    the same pool. *)
