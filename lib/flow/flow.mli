(** Flow vectors and their invariants (§2.4).

    A flow on a digraph is a per-arc [float array] (fractional during the
    interior point method, integral at the end). These helpers state the
    §2.4 definitions once so that every algorithm and every test checks the
    same conditions. *)

type t = float array

val excess : Digraph.t -> t -> t
(** [excess g f] is inflow minus outflow per vertex. *)

val value : Digraph.t -> s:int -> f:t -> float
(** Net flow out of the source. *)

val cost : Digraph.t -> t -> float

val check_terminals : string -> Digraph.t -> s:int -> t:int -> unit
(** [check_terminals entry g ~s ~t] raises [Invalid_argument], prefixed by
    [entry], when [s = t] or when either terminal is outside [[0, n)]. *)

val conservation_violation : Digraph.t -> s:int -> t:int -> f:t -> float
(** Max |excess| over vertices other than [s], [t]. *)

val demand_violation : Digraph.t -> sigma:int array -> f:t -> float
(** Max |excess(v) + σ(v)| — condition (1') with the convention that
    [σ(v) > 0] means [v] supplies σ(v) units. *)

val capacity_violation : Digraph.t -> f:t -> float
(** Max of [f_e − u_e] and [−f_e] over arcs (0 when [0 ≤ f ≤ u]). *)

val is_feasible : Digraph.t -> s:int -> t:int -> f:t -> bool
(** Conservation and capacity violations both at most 1e-9. *)

val is_integral : t -> bool
(** Every entry within 1e-9 of an integer. *)

val round_to_int : t -> int array
(** Nearest-integer snapshot (for reporting integral flows). *)
