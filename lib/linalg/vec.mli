(** Dense float vectors.

    A vector is a [float array]; these helpers keep the numerical code in the
    rest of the library free of index bookkeeping. All binary operations
    require equal lengths and raise [Invalid_argument] otherwise. *)

type t = float array

val create : int -> t
(** [create n] is the zero vector of dimension [n]. *)

val init : int -> (int -> float) -> t

val copy : t -> t

val dim : t -> int

val of_list : float list -> t

val basis : int -> int -> t
(** [basis n i] is the [i]-th standard basis vector of dimension [n]. *)

val constant : int -> float -> t

val sub : t -> t -> t

val scale : float -> t -> t

val axpy : float -> t -> t -> t
(** [axpy a x y] is [a*x + y], allocating a fresh vector. *)

(** {2 Zero-allocation kernels}

    Each [_into] variant writes its full result into a caller-owned
    destination and performs no heap allocation; destinations follow the
    operator convention of {!Csr.mul_vec_into} (output parameter last).
    Element expressions are bit-identical to the allocating functions that
    wrap them ({!sub}, {!scale}, {!axpy}, {!center}). [add_into] has no
    allocating twin. *)

val add_into : t -> t -> t -> unit
(** [add_into x y dst] sets [dst <- x + y]. [dst] may alias [x] or [y]. *)

val sub_into : t -> t -> t -> unit
(** [sub_into x y dst] sets [dst <- x - y]. [dst] may alias [x] or [y]. *)

val scale_into : float -> t -> t -> unit
(** [scale_into a x dst] sets [dst <- a*x]. [dst] may alias [x]. *)

val axpy_into : float -> t -> t -> t -> unit
(** [axpy_into a x y dst] sets [dst <- a*x + y]. [dst] may alias [y] (the
    in-place update [y <- a*x + y]) but must not alias [x]. *)

val copy_into : t -> t -> unit
(** [copy_into x dst] blits [x] over [dst]. *)

val fill : t -> float -> unit
(** [fill dst c] sets every entry of [dst] to [c]. *)

val center_into : t -> t -> unit
(** [center_into x dst] sets [dst <- x - mean x]. [dst] may alias [x]. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val dist2 : t -> t -> float
(** [dist2 x y] is [norm2 (sub x y)] without the intermediate allocation. *)

val sum : t -> float

val mean : t -> float

val center : t -> t
(** [center x] subtracts the mean from every entry; the result is orthogonal
    to the all-ones vector, i.e. lies in the range of a connected Laplacian. *)

val normalize : t -> t
(** [normalize x] is [x / ||x||]. The result is always a fresh vector, even
    when the norm is 0 (a zero input comes back as a zero *copy*, never the
    input array itself — aliasing the argument would let an in-place write
    through the result corrupt the caller's buffer). *)

val map2 : (float -> float -> float) -> t -> t -> t

val equal : ?eps:float -> t -> t -> bool
(** Entrywise comparison up to absolute tolerance [eps] (default [1e-9]). *)

val pp : Format.formatter -> t -> unit
