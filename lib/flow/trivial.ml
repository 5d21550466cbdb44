type report = { f : Flow.t; value : int; rounds : int }

let gather_rounds g =
  let n = Digraph.n g in
  let m = Digraph.m g in
  let u = max 1 (Digraph.max_capacity g) in
  let w = max 1 (Digraph.max_cost g) in
  let bits_per_edge =
    (2 * Runtime.Cost.log2_ceil (max n 2))
    + Runtime.Cost.log2_ceil (u + 1)
    + Runtime.Cost.log2_ceil (w + 1)
  in
  Runtime.Cost.gather_rounds ~n ~m ~bits_per_edge

let max_flow g ~s ~t =
  let f, value = Dinic.max_flow g ~s ~t in
  { f; value; rounds = gather_rounds g }
