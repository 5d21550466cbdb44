(** The trivial [O(n log U)]-round algorithm of §1.1: gather every edge at
    every node, then solve internally. The second comparison point of
    experiment E7 (and the crossover partner of the IPM algorithms on dense
    inputs). *)

type report = {
  f : Flow.t;
  value : int;
  rounds : int;  (** charged gather cost: [⌈m·words/(n−1)⌉] ≈ O(n log U) *)
}

val max_flow : Digraph.t -> s:int -> t:int -> report
