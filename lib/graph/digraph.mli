(** Directed graphs with integer capacities and costs — the input type of the
    flow problems (§2.4).

    Arcs are identified by their index in [arcs]. Parallel arcs and
    antiparallel pairs are permitted; self-loops are rejected. *)

type arc = { src : int; dst : int; cap : int; cost : int }

type t

val create : int -> arc list -> t
(** Raises [Invalid_argument] on out-of-range endpoints, self-loops, negative
    capacity or negative cost. *)

val n : t -> int

val m : t -> int

val arcs : t -> arc array

val arc : t -> int -> arc

val out_arcs : t -> int -> int list
(** Arc identifiers leaving the vertex. *)

val in_arcs : t -> int -> int list

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val max_capacity : t -> int
(** The paper's [U] ([0] on arc-free graphs). *)

val max_cost : t -> int
(** The paper's [W]. *)

val is_unit_capacity : t -> bool

val reverse : t -> t

val underlying : t -> Graph.t
(** Forgets orientation, capacity and cost; weight 1 per arc (multigraph). *)
