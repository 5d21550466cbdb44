(** Minimal synchronous [cc_serve] client: one request, one reply, over
    the {!Wire.Link} frame protocol. Used by the protocol test suite, the
    E13 bench, and the [cc_serve --call] convenience mode. *)

module Json = Metrics.Json

type t

val connect : string -> t
(** Dial a daemon at an address in {!Wire.Link}'s grammar (["unix:PATH"],
    ["tcp:HOST:PORT"] or ["HOST:PORT"]); raises [Unix.Unix_error] on
    refusal and [Invalid_argument] on any other form. *)

val close : t -> unit

val request : ?deadline:float -> t -> Json.t -> Json.t
(** Send one job object (its ["id"] becomes the frame sequence number)
    and block for the reply body. [deadline] is an absolute
    [Unix.gettimeofday] instant bounding each socket wait
    ({!Wire.Link.Timeout} on expiry). *)

val request_string : ?deadline:float -> t -> string -> Json.t
(** {!request} on a raw JSON string. *)

val ok : Json.t -> bool
(** The reply's ["ok"] field (false when absent). *)

val error_message : Json.t -> string option
