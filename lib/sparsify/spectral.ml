type result = {
  sparsifier : Graph.t;
  levels : int;
  classes : int;
  rounds : int;
  phase_rounds : (string * int) list;
}

let weight_class w = int_of_float (Float.floor (Float.log2 w))

(* Sparsify one expander cluster [vs] of [g], in [g]'s vertex ids. A
   cluster spanning all of [g] is [0..n-1] (Decomposition's contract), so
   it is its own induced subgraph and needs no translation. *)
let cluster_sparsifier g vs =
  let k = Array.length vs in
  if k < 2 then [||]
  else begin
    let whole = k = Graph.n g in
    let sub = if whole then g else fst (Graph.induced g vs) in
    let translate h =
      if whole then Graph.edges h
      else
        Array.map
          (fun e -> { e with Graph.u = vs.(e.Graph.u); v = vs.(e.Graph.v) })
          (Graph.edges h)
    in
    if Graph.m sub <= 2 * k then translate sub
    else
      (* Keep whichever representation is smaller — a cluster below the
         stand-in's own size would only grow — and the cluster itself
         when the stand-in is not numerically whole. *)
      match Product_demand.sparse_below ~limit:(Graph.m sub) sub with
      | Some h -> translate h
      | None -> translate sub
  end

let sparsify ?model g =
  let model =
    match model with Some m -> m | None -> Runtime.Model.default ()
  in
  let n = Graph.n g in
  let m = Graph.m g in
  let max_levels = (4 * Runtime.Cost.log2_ceil (max m 2)) + 4 in
  (* Binary weight classes (the log U factor of Theorem 3.3). *)
  let class_tbl = Hashtbl.create 8 in
  Array.iteri
    (fun id e ->
      let c = weight_class e.Graph.w in
      let cur = try Hashtbl.find class_tbl c with Not_found -> [] in
      Hashtbl.replace class_tbl c (id :: cur))
    (Graph.edges g);
  let class_list =
    Hashtbl.fold (fun c ids acc -> (c, List.rev ids) :: acc) class_tbl []
    |> List.sort compare
  in
  let ledger = Runtime.Cost.create () in
  let max_level_used = ref 0 in
  (* Per-cluster edge blocks, newest first; concatenated in this order
     they are the edge sequence [Graph.simple_of_edges] merges, whose
     hash-table order is the sparsifier's edge order. *)
  let blocks = ref [] in
  List.iter
    (fun (_c, ids) ->
      let current = ref (Graph.sub_edges g ids) in
      let level = ref 0 in
      while Graph.m !current > 0 && !level < max_levels do
        incr level;
        max_level_used := max !max_level_used !level;
        let d =
          Expander.Decomposition.decompose ~phi:0.05 ~gamma:0.25 !current
        in
        (* The partition itself is model-independent; only its charged
           price differs. Unicast pays the Theorem 3.2 formula; broadcast
           pays the FV22 polylog recharge of the send-bound core
           (DESIGN.md §13). The one-round result broadcast costs the same
           either way — broadcasting is the model's native move. *)
        let decompose_rounds =
          match model with
          | Runtime.Model.Unicast -> d.Expander.Decomposition.rounds
          | Runtime.Model.Broadcast ->
            Expander.Decomposition.bcast_rounds_formula
              ~n:(Graph.n !current)
        in
        Runtime.Cost.charge ledger ~phase:"decompose"
          (decompose_rounds + Runtime.Cost.broadcast_rounds);
        List.iter
          (fun vs -> blocks := cluster_sparsifier !current vs :: !blocks)
          d.Expander.Decomposition.clusters;
        current := Graph.sub_edges !current d.Expander.Decomposition.crossing
      done;
      (* Level cap reached with edges remaining: keep them verbatim. *)
      if Graph.m !current > 0 then blocks := Graph.edges !current :: !blocks)
    class_list;
  let h = Graph.simple_of_edges n (Array.concat !blocks) in
  (* Make the sparsifier globally known: gather all its edges everywhere. *)
  let u = Float.max 1. (Graph.max_weight g) in
  let bits_per_edge =
    (3 * Runtime.Cost.log2_ceil (max n 2))
    + Runtime.Cost.log2_ceil (int_of_float (Float.ceil u) + 1)
  in
  (* A gather is receive-bound, so the two models price it almost alike:
     ⌈m·w/(n-1)⌉ unicast vs ⌈m·w/n⌉ broadcast. *)
  Runtime.Cost.charge ledger ~phase:"gather"
    (match model with
    | Runtime.Model.Unicast ->
      Runtime.Cost.gather_rounds ~n ~m:(Graph.m h) ~bits_per_edge
    | Runtime.Model.Broadcast ->
      Runtime.Cost.bcast_gather_rounds ~n ~m:(Graph.m h) ~bits_per_edge);
  {
    sparsifier = h;
    levels = !max_level_used;
    classes = List.length class_list;
    rounds = Runtime.Cost.rounds ledger;
    phase_rounds = Runtime.Cost.phases ledger;
  }

let size_bound ~n ~u =
  let logn = Runtime.Cost.log2_ceil (max n 2) in
  let logu = 1 + Runtime.Cost.log2_ceil (int_of_float (Float.ceil u) + 1) in
  (* Per weight class and level: O(n · degree) cluster edges with
     degree = O(log n); levels = O(log m) = O(log n). *)
  32 * n * (logn + 4) * (logn + 4) * logu

let rounds_bound ~n ~u ~gamma =
  let logn = Runtime.Cost.log2_ceil (max n 2) in
  let logu = 1 + Runtime.Cost.log2_ceil (int_of_float (Float.ceil u) + 1) in
  let per_call = Expander.Decomposition.rounds_formula ~n ~gamma in
  (4 * (logn + 1) * logu * (per_call + 1)) + (8 * (logn + 4) * (logn + 4) * logu)

let bcast_rounds_bound ~n ~u =
  (* Same envelope as [rounds_bound] with the per-decomposition cost
     swapped for the broadcast recharge: O(log n · log U · polylog n). *)
  let logn = Runtime.Cost.log2_ceil (max n 2) in
  let logu = 1 + Runtime.Cost.log2_ceil (int_of_float (Float.ceil u) + 1) in
  let per_call = Expander.Decomposition.bcast_rounds_formula ~n in
  (4 * (logn + 1) * logu * (per_call + 1)) + (8 * (logn + 4) * (logn + 4) * logu)
