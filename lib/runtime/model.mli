(** Which congested-clique communication model a run is accounted in.

    [Unicast] is the standard model of the source paper (§2.1): every
    ordered pair of nodes may exchange a distinct [O(log n)]-bit message
    per round. [Broadcast] is the Broadcast Congested Clique of Forster &
    de Vos (arXiv:2205.12059): per round every node ships {e one} message
    of [O(log n)] bits, received by all other nodes — per-destination
    distinct payloads are illegal.

    The model is a property of a {e run}, selected by the [CC_MODEL]
    environment variable (values [broadcast]/[bcast] vs anything else) or
    forced from test code with {!set_default}. Transports declare which
    width rule they enforce through {!Transport.S.unicast}; the charged
    pipelines ([Sparsify.Spectral], [Laplacian.Solver]) take a [?model]
    argument defaulting to {!default} and switch their round accounting
    accordingly (DESIGN.md §13). *)

type t = Unicast | Broadcast

val default : unit -> t
(** The model [?model] arguments default to: {!set_default}'s override if
    any, else [Broadcast] when [CC_MODEL] is [broadcast] or [bcast]
    (case-insensitive), else [Unicast]. *)

val set_default : t option -> unit
(** [set_default (Some m)] forces {!default}; [None] restores environment
    control — the test-suite hook for running whole charged pipelines
    under a chosen model. *)

val name : t -> string
(** ["unicast"] / ["broadcast"] — the spelling used in bench row keys and
    reports. *)

val of_string : string -> t option
(** Parse a [CC_MODEL] value; [None] for unrecognized spellings. *)
