(** Compressed-sparse-row matrices.

    This is the representation used for graph Laplacians of the *input*
    graphs: a congested-clique node never materializes the dense [n × n]
    Laplacian, it only needs matrix–vector products (one round each in the
    model, since row [i] lives at node [i]). *)

type t

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
(** Builds a CSR matrix from [(row, col, value)] triplets. Duplicate
    coordinates are summed; explicit zeros are dropped. Raises
    [Invalid_argument] on out-of-range indices. *)

val rows : t -> int

val nnz : t -> int

val get : t -> int -> int -> float
(** [get a i j] is entry [(i, j)]; [O(row degree)] lookup. *)

val mul_vec_into : t -> Vec.t -> Vec.t -> unit
(** [mul_vec_into a x y] sets [y <- A x] without allocating; [y] must not
    alias [x]. This is the [apply_into] operator shape the workspace solvers
    ({!Cg.solve_into}, {!Chebyshev.solve_into}) consume. *)

val mul_vec_transpose : t -> Vec.t -> Vec.t

val transpose : t -> t

val scale : float -> t -> t

val add : t -> t -> t

val to_dense : t -> Dense.t

val of_dense : ?eps:float -> Dense.t -> t
(** Entries with absolute value ≤ [eps] (default 0) are dropped. *)

val is_symmetric : ?eps:float -> t -> bool
