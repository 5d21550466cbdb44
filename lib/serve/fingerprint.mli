(** Structural FNV-1a fingerprints for the daemon's cache keys.

    A fingerprint folds the full structure (sizes, endpoints, weight/cap
    bits) through {!Wire.Fnv}, so equal inputs — however they were
    specified on the wire — map to the same cache entry, across processes
    and runs. Distinct inputs colliding is as unlikely as any 64-bit hash;
    a collision can only ever serve a wrong *artifact*, never corrupt one,
    and certified policies re-check outputs against the actual input. *)

val graph : Graph.t -> int64

val digraph : Digraph.t -> int64

val vec : int64 -> Linalg.Vec.t -> int64
(** Fold a vector into an existing fingerprint. *)

val float : int64 -> float -> int64
(** Fold one float (by IEEE bit pattern). *)

val to_hex : int64 -> string
(** 16 lowercase hex digits — the cache-key / wire spelling. *)
