(** The faulty-transport functor.

    [Make (T)] satisfies {!Runtime.TRANSPORT}, so
    [Runtime.Make (Make (Clique.Sim))] (or [(Make (Clique.Congest))]) runs
    any node program through a deterministic fault layer. Faults are
    decided message-by-message from the {!Schedule}'s keyed mixer, applied
    to the outgoing traffic, and the surviving traffic is delivered by the
    wrapped kernel — which keeps enforcing its own width bounds and round
    accounting, so injected faults can only {e remove or perturb} words,
    never smuggle extra bandwidth. An empty schedule is an exact
    passthrough (bit-identical rounds, words, and sanitizer
    transcripts). *)

type event = {
  round : int;  (** wrapped transport's round counter at call entry *)
  op : string;  (** ["exchange"], ["route"], or ["broadcast"] *)
  kind : Schedule.kind;
  src : int;
  dst : int;  (** [-1] for broadcasts and node-level faults *)
  detail : string;  (** human-readable description of the perturbation *)
}

val pp_event : Format.formatter -> event -> unit

module Make (T : Runtime.TRANSPORT) : sig
  include Runtime.TRANSPORT

  val inject : schedule:Schedule.t -> T.t -> t
  (** [inject ~schedule base] wraps an existing kernel. Every injected
      fault is appended to {!events}, the layer's one record of what it
      did; the counts below are read off it. *)

  val injected : t -> (string * int) list
  (** Per-kind injected-fault counts, sorted by kind name. *)

  val injected_total : t -> int
  (** The number of injected faults: the length of {!events}. *)

  val events : t -> event list
  (** The fault trace, in injection order. *)
end
