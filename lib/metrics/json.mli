(** A minimal JSON tree with a deterministic serializer and a
    recursive-descent parser — hand-rolled (no new dependencies) so the
    bench harness can emit [BENCH_E<k>.json] files and [bench_diff] can
    read them back; cc_serve's job bodies and [cc_lint --json] use it
    too.

    Serialization is deterministic: object fields are emitted in the order
    given, floats use the shortest decimal representation that round-trips
    through [float_of_string], and strings escape exactly the characters
    JSON requires (everything else, including UTF-8 multibyte sequences,
    passes through byte-for-byte). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list
      (** Field order is preserved by both serializer and parser. *)

val to_string : ?minify:bool -> t -> string
(** Serialize. Default is pretty-printed with two-space indentation (the
    committed-baseline format); [~minify:true] emits no whitespace.
    Non-finite floats have no JSON spelling and serialize as [null]. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a byte offset and
    message. Numbers without [.]/[e] that fit in [int] parse as [Int].
    Arrays and objects nested more than 512 deep are an [Error], so the
    parser's recursion stays shallow on any input. Never raises. *)

val of_bytes : Bytes.t -> len:int -> (t, string) result
(** {!of_string} over the first [len] bytes of a buffer, read in place.
    The tree shares no memory with the buffer, so the caller may reuse it
    at once. Raises [Invalid_argument] only when [len] is outside
    [\[0, Bytes.length b\]]. *)

val escape_string : string -> string
(** [escape_string s] is [s] with JSON string escapes applied (no
    surrounding quotes). Exposed for tests. *)

val member : string -> t -> t option
(** [member k j] is field [k] of [Assoc j], if both exist. *)

val to_int_opt : t -> int option
(** [Int] payload, if that's what it is. *)

val to_float_opt : t -> float option
(** [Float] payload, also accepting [Int] (as in JSON, [3] is a number). *)

val to_string_opt : t -> string option
(** [String] payload, if that's what it is. *)

val to_list_opt : t -> t list option
(** [List] payload, if that's what it is. *)

val equal : t -> t -> bool
(** Structural equality; [Assoc] compares unordered (field sets). *)
