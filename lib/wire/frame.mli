(** Length-prefixed binary framing (DESIGN.md §11, §14).

    A frame is a 36-byte versioned header plus an opaque payload:

    {v
    offset  size  field
    0       2     magic "CW"
    2       1     format version (currently 3)
    3       1     frame kind (protocol-defined)
    4       4     source shard id, int32 LE (-1 = coordinator)
    8       4     destination shard id, int32 LE
    12      8     sequence number, int64 LE
    20      4     session epoch, int32 LE
    24      4     payload length in bytes, int32 LE
    28      8     FNV-1a 64 checksum of the payload
    v}

    Any header or checksum inconsistency raises {!Malformed} — a corrupt
    or desynchronized stream never delivers silently-wrong bytes. The
    epoch field identifies the worker incarnation a frame belongs to: the
    shard supervisor bumps it on every recovery event, and receivers
    reject frames whose epoch does not match their current one, so a late
    frame from a dead incarnation can never be mistaken for current-round
    traffic. *)

exception Malformed of { what : string }

val header_bytes : int
(** 36. *)

type header = {
  kind : int;
  src : int;
  dst : int;
  seq : int;
  epoch : int;
  len : int;
  sum : int64;
}

type t = {
  kind : int;
  src : int;
  dst : int;
  seq : int;
  epoch : int;
  payload : Bytes.t;
}

val encode : t -> Bytes.t
(** Header + payload as one byte string, checksum computed here. *)

val decode_header : Bytes.t -> header
(** Parse and validate exactly {!header_bytes} bytes of header. A payload
    length above 1 GiB is {!Malformed}, so a corrupt length field cannot
    trigger a giant allocation. *)

val verify : header -> Bytes.t -> t
(** Check the payload against the header's length/checksum and assemble
    the frame. *)

val check : header -> Bytes.t -> unit
(** [check hdr b] checks bytes [\[0, hdr.len)] of [b] against the header's
    checksum, raising {!Malformed} on a mismatch: {!verify} for a payload
    read into a reused buffer, assembling no frame. *)

val decode : Bytes.t -> t
(** [verify] over a contiguous [encode] result — the round-trip inverse. *)

(** Payload serialization: ints as 8 little-endian bytes, strings and
    int arrays length-prefixed. The reader bounds-checks every access and
    raises {!Malformed} on truncation, and on any count (a length prefix
    included) that is negative or more than the bytes left could hold, so
    a payload cannot make its reader allocate more than it carries. *)
module Writer : sig
  type t

  val create : ?hint:int -> unit -> t

  val int : t -> int -> unit

  val string : t -> string -> unit

  val ints : t -> int array -> unit
  (** The length, then each element. *)

  val contents : t -> Bytes.t
end

module Reader : sig
  type t

  val of_bytes : Bytes.t -> t

  val int : t -> int

  val count : t -> bytes:int -> int
  (** [count r ~bytes] reads a count of items that take at least [bytes]
      bytes each: {!Malformed} unless
      [0 <= count <= bytes left / bytes]. *)

  val string : t -> string

  val ints : t -> int array
  (** Reads what {!Writer.ints} wrote. *)

  val at_end : t -> bool
end
