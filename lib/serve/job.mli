(** Job specs and the JSON-over-frames protocol of [cc_serve]
    (DESIGN.md §15).

    A request is one {!Wire.Frame} of kind {!frame_job} carrying a JSON
    object; the daemon answers with one frame of kind {!frame_result}
    (success) or {!frame_error} (refusal), echoing the request [id] both
    as the frame sequence number and in the body. Graph and network
    operands are given either explicitly ([{"n": …, "edges": [[u,v,w],…]}])
    or as named deterministic {!Gen} generators, so a whole benchmark
    workload fits in a few hundred bytes of request. A generator operand
    stays a spec until {!Exec.run} needs the graph, which a cache hit
    does not. *)

module Json = Metrics.Json

val frame_job : int
(** Frame kind 0x30 — client → daemon request. *)

val frame_result : int
(** Frame kind 0x31 — daemon → client success. *)

val frame_error : int
(** Frame kind 0x32 — daemon → client refusal (body has [ok: false]). *)

type solver = Chebyshev  (** the Theorem 1.1 pipeline *)
            | Cg_baseline  (** plain distributed CG *)

(** A graph or network operand. *)
type 'a operand =
  | Given of 'a  (** an explicit edge or arc list, checked when parsed *)
  | Spec of { key : string; build : unit -> 'a }
      (** a named {!Gen} generator, not yet run. [key] spells the
          generator and every parameter after defaults ([seed] defaults
          to 1), ints in decimal and floats by their IEEE bits, so two
          spellings of one spec share a key. [build] runs the generator
          and raises whatever it raises on parameters it refuses. *)

val build : 'a operand -> 'a
(** The operand itself: {!Given}'s value, or {!Spec}'s [build ()]. *)

val key : ('a -> int64) -> 'a operand -> string
(** The operand's cache key, the one keying rule for every job kind:
    {!Spec}'s [key], or ["fnv:"] and the hex of the given fingerprint
    function applied to a {!Given} operand. A spec key is sound because
    every generator is a pure function of its parameters; the two forms
    never collide, and a spec and an explicit copy of the same graph
    simply get separate entries. *)

(** A solve's right-hand side, checked against the graph by {!rhs}. *)
type rhs =
  | Values of Linalg.Vec.t  (** an explicit list of numbers *)
  | Pattern of int
      (** [{"seed": k}] (or no [b] at all, [k = 1]): the deterministic
          full-support pattern *)

val rhs : rhs -> n:int -> (Linalg.Vec.t, string) result
(** The vector for an [n]-vertex graph; [Error] when explicit values
    have the wrong length. *)

type payload =
  | Solve of {
      g : Graph.t operand;
      b : rhs;
      solver : solver;
      eps : float;
      return_x : bool;  (** include the full solution vector in the reply *)
    }
  | Sparsify of { g : Graph.t operand }
  | Maxflow of { net : Digraph.t operand; s : int; t : int option }
      (** [t = None]: the network's last vertex *)
  | Mst of { g : Graph.t operand }
  | Stats  (** daemon counters; answered inline by the listener *)
  | Shutdown  (** acknowledged, then the daemon drains and exits *)

type t = {
  id : int;  (** echoed in the response; defaults to 0 *)
  payload : payload;
  timeout_ms : float option;
      (** drop the job with an error if it still sits in the queue this
          many milliseconds after arrival *)
  inject : bool;
      (** test hook: corrupt the first execution's output so the
          [cc_serve --policy] certification path is exercised
          deterministically *)
  nocache : bool;  (** bypass the artifact cache (naive-mode benching) *)
}

val kind_name : payload -> string

val parse : Json.t -> (t, string) result
(** Parse a request object; [Error] carries a client-facing message. *)

val parse_string : string -> (t, string) result
(** {!Json.of_string} then {!parse}. Never raises: a request runs no
    generator and sizes nothing by its parameters until {!Exec.run}. *)

val parse_bytes : Bytes.t -> len:int -> (t, string) result
(** {!parse_string} over the first [len] bytes of a buffer, read in
    place ({!Json.of_bytes}); the job shares no memory with the buffer. *)

val error_body : id:int -> string -> Json.t

val result_body :
  id:int ->
  kind:string ->
  result:(string * Json.t) list ->
  metrics:(string * Json.t) list ->
  Json.t

val frame : kind:int -> id:int -> Json.t -> Wire.Frame.t
(** Wrap a JSON body into a protocol frame (minified payload, [seq = id]). *)

val frame_text : kind:int -> id:int -> string -> Wire.Frame.t
(** {!frame} with the payload given as text, sent byte for byte. *)
