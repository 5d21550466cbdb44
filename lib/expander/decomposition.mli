(** Deterministic (ε, φ)-expander decomposition — the congested-clique
    Theorem 3.2 interface (Chang–Saranurak), realized by deterministic
    recursive spectral partitioning (DESIGN.md, substitution 2).

    [decompose g ~phi] returns a partition of the vertex set such that every
    part induces a subgraph of conductance ≥ [phi] (certified by Cheeger:
    λ₂/2 ≥ φ, or by exact enumeration on tiny parts), plus the list of edges
    crossing the partition. The crossing edges are what the sparsifier
    pipeline (Theorem 3.3) recurses on. *)

type t = {
  clusters : int array list;
      (** vertex sets, disjoint, covering [0..n-1]; a cluster that spans
          all [n] vertices is [0..n-1] in order *)
  crossing : int list;  (** edge ids of [g] crossing the partition *)
  phi : float;  (** the conductance target that was certified *)
  rounds : int;  (** rounds charged per the Theorem 3.2 formula *)
}

val decompose : ?phi:float -> ?gamma:float -> Graph.t -> t
(** [phi] defaults to [0.05]; [gamma] (the [n^{O(γ)}] knob of Theorem 3.2)
    defaults to [0.25] and only affects the charged round count. *)

val check : Graph.t -> t -> bool
(** Validates: clusters partition the vertex set; [crossing] is exactly the
    set of inter-cluster edge ids. (Conductance is validated separately in
    tests because it is expensive.) *)

val crossing_fraction : Graph.t -> t -> float
(** [|crossing| / m] — the measured ε. *)

val rounds_formula : n:int -> gamma:float -> int
(** The charged cost of one decomposition call:
    [⌈n^γ⌉ + O(log n)] (ε is the constant 1/2 here, so the ε^{-O(1)} factor
    is constant and folded in). Exposed for the E1 bench's reference curve. *)

val bcast_rounds_formula : n:int -> int
(** The Broadcast Congested Clique recharge of one decomposition call:
    [4(⌈log₂ n⌉+1)² + 4⌈log₂ n⌉], a polylog stand-in with explicit
    constants for the FV22 construction (arXiv:2205.12059) that replaces
    the send-bound [⌈n^γ⌉] core. Exposed for the E11 reference curve;
    see DESIGN.md §13 for why the crossover only appears at large [n]. *)
