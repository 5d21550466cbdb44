(** FNV-1a 64-bit folding, shared by the sanitizer transcripts
    ([Runtime.Sanitize]) and the frame checksums ({!Frame}).

    All folds are incremental: start from {!offset}, feed data, compare the
    resulting [int64]. The integer and string folds are the historical
    transcript encodings — changing them silently would invalidate every
    recorded transcript hash, so they live here, once. *)

val offset : int64
(** The FNV-1a 64 offset basis, [0xcbf29ce484222325]. *)

val prime : int64
(** The FNV-1a 64 prime, [0x100000001b3]. *)

val add_byte : int64 -> int -> int64
(** Fold one byte (low 8 bits of the argument). *)

val add_int : int64 -> int -> int64
(** Fold a machine int as 8 little-endian bytes, sign-extended. *)

val add_string : int64 -> string -> int64
(** Fold every byte of the string, then a [0xff] terminator (so adjacent
    strings cannot collide by re-splitting). *)

val add_ints : int64 -> int list -> int64
(** [List.fold_left add_int]. *)

val hash_bytes : Bytes.t -> pos:int -> len:int -> int64
(** FNV-1a of a raw byte range, no terminator: the frame checksum. *)
