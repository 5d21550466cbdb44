type edge = { u : int; v : int; w : float }

type t = {
  n : int;
  edges : edge array;
  adj : (int * int) list array; (* per vertex: (neighbor, edge id) *)
}

let build_adj n edges =
  let adj = Array.make n [] in
  Array.iteri
    (fun id e ->
      adj.(e.u) <- (e.v, id) :: adj.(e.u);
      adj.(e.v) <- (e.u, id) :: adj.(e.v))
    edges;
  adj

let check_edge n e =
  if e.u < 0 || e.u >= n || e.v < 0 || e.v >= n then
    invalid_arg
      (Printf.sprintf "Graph.create: edge (%d,%d) out of range" e.u e.v);
  if e.u = e.v then
    invalid_arg (Printf.sprintf "Graph.create: self-loop at %d" e.u);
  (* Written so that NaN fails too: every comparison with NaN is false. *)
  if not (e.w > 0. && e.w < Float.infinity) then
    invalid_arg
      (Printf.sprintf "Graph.create: weight %g on (%d,%d) is not finite and \
                       positive" e.w e.u e.v)

let create n edge_list =
  List.iter (check_edge n) edge_list;
  let edges = Array.of_list edge_list in
  { n; edges; adj = build_adj n edges }

let n g = g.n

let m g = Array.length g.edges

let edges g = g.edges

let edge g i = g.edges.(i)

let adj g v = g.adj.(v)

let degree g v = List.length g.adj.(v)

let weighted_degree g v =
  List.fold_left (fun acc (_, id) -> acc +. g.edges.(id).w) 0. g.adj.(v)

let total_weight g = Array.fold_left (fun acc e -> acc +. e.w) 0. g.edges

let max_weight g = Array.fold_left (fun acc e -> Float.max acc e.w) 0. g.edges

let laplacian_dense g =
  let d = Array.make_matrix g.n g.n 0. in
  Array.iter
    (fun e ->
      d.(e.u).(e.u) <- d.(e.u).(e.u) +. e.w;
      d.(e.v).(e.v) <- d.(e.v).(e.v) +. e.w;
      d.(e.u).(e.v) <- d.(e.u).(e.v) -. e.w;
      d.(e.v).(e.u) <- d.(e.v).(e.u) -. e.w)
    g.edges;
  d

(* [laplacian_dense g] without row and column 0, built directly: each
   entry gets the same terms, from the same edges in the same order. *)
let laplacian_grounded g =
  if g.n = 0 then invalid_arg "Graph.laplacian_grounded: no vertex to ground";
  let d = Array.make_matrix (g.n - 1) (g.n - 1) 0. in
  Array.iter
    (fun e ->
      let u = e.u - 1 and v = e.v - 1 in
      if u >= 0 then d.(u).(u) <- d.(u).(u) +. e.w;
      if v >= 0 then d.(v).(v) <- d.(v).(v) +. e.w;
      if u >= 0 && v >= 0 then begin
        d.(u).(v) <- d.(u).(v) -. e.w;
        d.(v).(u) <- d.(v).(u) -. e.w
      end)
    g.edges;
  d

(* cc_lint: hot apply_laplacian_into *)
let apply_laplacian_into g x y =
  if Array.length x <> g.n then
    invalid_arg "Graph.apply_laplacian_into: dimension mismatch";
  if Array.length y <> g.n then
    invalid_arg "Graph.apply_laplacian_into: output dimension mismatch";
  Linalg.Vec.fill y 0.;
  let edges = g.edges in
  for i = 0 to Array.length edges - 1 do
    let e = edges.(i) in
    let d = e.w *. (x.(e.u) -. x.(e.v)) in
    y.(e.u) <- y.(e.u) +. d;
    y.(e.v) <- y.(e.v) -. d
  done

(* [apply_laplacian_into] with [c.(i)] in place of edge [i]'s weight: the
   same terms in the same order, so a conductance array equal to the
   weights gives the same bits. *)
(* cc_lint: hot apply_conductance_laplacian_into *)
let apply_conductance_laplacian_into g c x y =
  if Array.length c <> Array.length g.edges then
    invalid_arg
      "Graph.apply_conductance_laplacian_into: one conductance per edge";
  if Array.length x <> g.n then
    invalid_arg "Graph.apply_conductance_laplacian_into: dimension mismatch";
  if Array.length y <> g.n then
    invalid_arg
      "Graph.apply_conductance_laplacian_into: output dimension mismatch";
  Linalg.Vec.fill y 0.;
  let edges = g.edges in
  for i = 0 to Array.length edges - 1 do
    let e = edges.(i) in
    let d = c.(i) *. (x.(e.u) -. x.(e.v)) in
    y.(e.u) <- y.(e.u) +. d;
    y.(e.v) <- y.(e.v) -. d
  done

let apply_laplacian g x =
  if Array.length x <> g.n then
    invalid_arg "Graph.apply_laplacian: dimension mismatch";
  let y = Linalg.Vec.create g.n in
  apply_laplacian_into g x y;
  y

let quadratic_form g x =
  Array.fold_left
    (fun acc e ->
      let d = x.(e.u) -. x.(e.v) in
      acc +. (e.w *. d *. d))
    0. g.edges

let induced g vs =
  let index = Array.make g.n (-1) in
  Array.iteri (fun new_id old_id -> index.(old_id) <- new_id) vs;
  let edge_list =
    Array.to_list g.edges
    |> List.filter_map (fun e ->
           if index.(e.u) >= 0 && index.(e.v) >= 0 then
             Some { u = index.(e.u); v = index.(e.v); w = e.w }
           else None)
  in
  (create (Array.length vs) edge_list, vs)

let sub_edges g ids =
  create g.n (List.map (fun id -> g.edges.(id)) ids)

let union a b =
  if a.n <> b.n then invalid_arg "Graph.union: vertex count mismatch";
  create a.n (Array.to_list a.edges @ Array.to_list b.edges)

let map_weights f g =
  create g.n (List.map (fun e -> { e with w = f e }) (Array.to_list g.edges))

let scale_weights s g = map_weights (fun e -> s *. e.w) g

let is_connected g =
  if g.n = 0 then true
  else begin
    let seen = Array.make g.n false in
    let stack = ref [ 0 ] in
    seen.(0) <- true;
    let count = ref 1 in
    let rec loop () =
      match !stack with
      | [] -> ()
      | v :: rest ->
        stack := rest;
        List.iter
          (fun (u, _) ->
            if not seen.(u) then begin
              seen.(u) <- true;
              incr count;
              stack := u :: !stack
            end)
          g.adj.(v);
        loop ()
    in
    loop ();
    !count = g.n
  end

(* Sum parallel edges in a table sized for [edges]; the table's order is
   the result's edge order. *)
let simple_of_edges n edges =
  Array.iter (check_edge n) edges;
  let tbl = Hashtbl.create (Array.length edges) in
  Array.iter
    (fun e ->
      let key = (min e.u e.v, max e.u e.v) in
      let cur = try Hashtbl.find tbl key with Not_found -> 0. in
      Hashtbl.replace tbl key (cur +. e.w))
    edges;
  let edge_list =
    Hashtbl.fold (fun (u, v) w acc -> { u; v; w } :: acc) tbl []
  in
  create n edge_list

let canonical_edges g =
  Array.to_list g.edges
  |> List.map (fun e -> (min e.u e.v, max e.u e.v, e.w))
  |> List.sort compare

let equal_structure a b = a.n = b.n && canonical_edges a = canonical_edges b
