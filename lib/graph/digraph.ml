type arc = { src : int; dst : int; cap : int; cost : int }

type t = {
  n : int;
  arcs : arc array;
  out_adj : int list array;
  in_adj : int list array;
}

let create n arc_list =
  List.iter
    (fun a ->
      if a.src < 0 || a.src >= n || a.dst < 0 || a.dst >= n then
        invalid_arg
          (Printf.sprintf "Digraph.create: arc (%d,%d) out of range" a.src
             a.dst);
      if a.src = a.dst then
        invalid_arg (Printf.sprintf "Digraph.create: self-loop at %d" a.src);
      if a.cap < 0 then invalid_arg "Digraph.create: negative capacity";
      if a.cost < 0 then invalid_arg "Digraph.create: negative cost")
    arc_list;
  let arcs = Array.of_list arc_list in
  let out_adj = Array.make n [] in
  let in_adj = Array.make n [] in
  Array.iteri
    (fun id a ->
      out_adj.(a.src) <- id :: out_adj.(a.src);
      in_adj.(a.dst) <- id :: in_adj.(a.dst))
    arcs;
  { n; arcs; out_adj; in_adj }

let n g = g.n

let m g = Array.length g.arcs

let arcs g = g.arcs

let arc g i = g.arcs.(i)

let out_arcs g v = g.out_adj.(v)

let in_arcs g v = g.in_adj.(v)

let out_degree g v = List.length g.out_adj.(v)

let in_degree g v = List.length g.in_adj.(v)

let max_capacity g = Array.fold_left (fun acc a -> max acc a.cap) 0 g.arcs

let max_cost g = Array.fold_left (fun acc a -> max acc a.cost) 0 g.arcs

let is_unit_capacity g = Array.for_all (fun a -> a.cap = 1) g.arcs

let reverse g =
  create g.n
    (Array.to_list g.arcs
    |> List.map (fun a -> { a with src = a.dst; dst = a.src }))

let underlying g =
  Graph.create g.n
    (Array.to_list g.arcs
    |> List.map (fun a -> { Graph.u = a.src; v = a.dst; w = 1. }))
