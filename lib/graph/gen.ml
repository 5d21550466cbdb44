let edge u v w = { Graph.u; v; w }

let path n =
  Graph.create n (List.init (max 0 (n - 1)) (fun i -> edge i (i + 1) 1.))

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: need n >= 3";
  Graph.create n (List.init n (fun i -> edge i ((i + 1) mod n) 1.))

let star n =
  Graph.create n (List.init (max 0 (n - 1)) (fun i -> edge 0 (i + 1) 1.))

let complete ?(w = 1.) n =
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      acc := edge i j w :: !acc
    done
  done;
  Graph.create n !acc

let complete_bipartite a b =
  let acc = ref [] in
  for i = 0 to a - 1 do
    for j = 0 to b - 1 do
      acc := edge i (a + j) 1. :: !acc
    done
  done;
  Graph.create (a + b) !acc

let grid r c =
  let id i j = (i * c) + j in
  let acc = ref [] in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if j + 1 < c then acc := edge (id i j) (id i (j + 1)) 1. :: !acc;
      if i + 1 < r then acc := edge (id i j) (id (i + 1) j) 1. :: !acc
    done
  done;
  Graph.create (r * c) !acc

let hypercube d =
  let n = 1 lsl d in
  let acc = ref [] in
  for v = 0 to n - 1 do
    for b = 0 to d - 1 do
      let u = v lxor (1 lsl b) in
      if v < u then acc := edge v u 1. :: !acc
    done
  done;
  Graph.create n !acc

let circulant n offsets =
  if n < 1 then invalid_arg "Gen.circulant: need n >= 1";
  let offsets =
    List.sort_uniq compare
      (List.filter_map
         (fun o ->
           let o = ((o mod n) + n) mod n in
           if o = 0 then None else Some (min o (n - o)))
         offsets)
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun o ->
      for i = 0 to n - 1 do
        let j = (i + o) mod n in
        let key = (min i j, max i j) in
        if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key ()
      done)
    offsets;
  let acc = Hashtbl.fold (fun (u, v) () l -> edge u v 1. :: l) tbl [] in
  Graph.create n acc

let expander n d =
  let rec offsets o k acc =
    if k = 0 || o >= n / 2 then List.rev acc
    else offsets (o * 2) (k - 1) (o :: acc)
  in
  circulant n (offsets 1 (max 1 (d / 2)) [ 1 ])

let gnp ?(seed = 42L) n p =
  let rng = Prng.create seed in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Prng.float rng 1. < p then acc := edge i j 1. :: !acc
    done
  done;
  Graph.create n !acc

let connected_gnp ?(seed = 42L) n p =
  let rng = Prng.create seed in
  let perm = Array.init n (fun i -> i) in
  Prng.shuffle rng perm;
  let backbone =
    List.init (max 0 (n - 1)) (fun i -> edge perm.(i) perm.(i + 1) 1.)
  in
  let acc = ref backbone in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Prng.float rng 1. < p then acc := edge i j 1. :: !acc
    done
  done;
  Graph.simple_of_edges n (Array.of_list !acc)

let weighted_gnp ?(seed = 42L) n p u =
  let rng = Prng.create (Int64.add seed 1L) in
  let g = connected_gnp ~seed n p in
  Graph.map_weights (fun _ -> float_of_int (1 + Prng.int rng u)) g

let planted_partition ?(seed = 42L) n p_in p_out =
  let rng = Prng.create seed in
  let half = n / 2 in
  let side v = if v < half then 0 else 1 in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let p = if side i = side j then p_in else p_out in
      if Prng.float rng 1. < p then acc := edge i j 1. :: !acc
    done
  done;
  (* Keep each side connected so conductance is well defined per cluster. *)
  let backbone =
    List.init (max 0 (half - 1)) (fun i -> edge i (i + 1) 1.)
    @ List.init
        (max 0 (n - half - 1))
        (fun i -> edge (half + i) (half + i + 1) 1.)
    @ [ edge 0 half 1. ]
  in
  Graph.simple_of_edges n (Array.of_list (backbone @ !acc))

let barbell k =
  if k < 3 then invalid_arg "Gen.barbell: need k >= 3";
  let acc = ref [ edge (k - 1) k 1. ] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      acc := edge i j 1. :: edge (k + i) (k + j) 1. :: !acc
    done
  done;
  Graph.create (2 * k) !acc

let even_gnp ?(seed = 42L) n p =
  let g = connected_gnp ~seed n p in
  let odd =
    List.filter (fun v -> Graph.degree g v land 1 = 1)
      (List.init n (fun i -> i))
  in
  (* Odd-degree vertices come in pairs; joining consecutive ones fixes
     parity. A pair might already be adjacent — the multigraph copy is fine
     for Eulerian orientation. *)
  let rec pair_up acc = function
    | [] -> acc
    | [ _ ] -> assert false
    | a :: b :: rest -> pair_up (edge a b 1. :: acc) rest
  in
  let extra = pair_up [] odd in
  Graph.create n (Array.to_list (Graph.edges g) @ extra)

let cycle_union ?(seed = 42L) n k =
  if n < 3 then invalid_arg "Gen.cycle_union: need n >= 3";
  let rng = Prng.create seed in
  let acc = ref [] in
  for c = 0 to k - 1 do
    let len = 3 + Prng.int rng (max 1 (n - 3)) in
    let verts = Array.init n (fun i -> i) in
    Prng.shuffle rng verts;
    let cyc = Array.sub verts 0 len in
    (* The first cycle covers everything so the multigraph is connected. *)
    let cyc = if c = 0 then Array.init n (fun i -> verts.(i)) else cyc in
    let l = Array.length cyc in
    for i = 0 to l - 1 do
      acc := edge cyc.(i) cyc.((i + 1) mod l) 1. :: !acc
    done
  done;
  Graph.create n !acc

let arc src dst cap cost = { Digraph.src; dst; cap; cost }

let layered_network ?(seed = 42L) layers width maxcap =
  if layers < 1 || width < 1 then invalid_arg "Gen.layered_network";
  let rng = Prng.create seed in
  let n = (layers * width) + 2 in
  let s = 0 and t = n - 1 in
  let id l w = 1 + (l * width) + w in
  let acc = ref [] in
  for w = 0 to width - 1 do
    acc := arc s (id 0 w) (1 + Prng.int rng maxcap) 0 :: !acc;
    acc := arc (id (layers - 1) w) t (1 + Prng.int rng maxcap) 0 :: !acc
  done;
  for l = 0 to layers - 2 do
    for w1 = 0 to width - 1 do
      for w2 = 0 to width - 1 do
        if w1 = w2 || Prng.float rng 1. < 0.6 then
          acc := arc (id l w1) (id (l + 1) w2) (1 + Prng.int rng maxcap) 0 :: !acc
      done
    done
  done;
  Digraph.create n !acc

let random_network ?(seed = 42L) n m maxcap =
  if n < 2 then invalid_arg "Gen.random_network: need n >= 2";
  let rng = Prng.create seed in
  let acc = ref [] in
  (* Backbone guaranteeing s-t reachability. *)
  for i = 0 to n - 2 do
    acc := arc i (i + 1) (1 + Prng.int rng maxcap) 0 :: !acc
  done;
  let count = ref 0 in
  while !count < m do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v then begin
      acc := arc u v (1 + Prng.int rng maxcap) 0 :: !acc;
      incr count
    end
  done;
  Digraph.create n !acc

let unit_bipartite ?(seed = 42L) k p =
  let rng = Prng.create seed in
  let n = (2 * k) + 2 in
  let s = 0 and t = n - 1 in
  let left i = 1 + i and right j = 1 + k + j in
  let acc = ref [] in
  for i = 0 to k - 1 do
    acc := arc s (left i) 1 0 :: arc (right i) t 1 0 :: !acc
  done;
  for i = 0 to k - 1 do
    let degree = ref 0 in
    for j = 0 to k - 1 do
      if Prng.float rng 1. < p then begin
        acc := arc (left i) (right j) 1 0 :: !acc;
        incr degree
      end
    done;
    if !degree = 0 then acc := arc (left i) (right (Prng.int rng k)) 1 0 :: !acc
  done;
  Digraph.create n !acc

let random_mcf ?(seed = 42L) n m maxcost =
  if n < 2 then invalid_arg "Gen.random_mcf: need n >= 2";
  let rng = Prng.create seed in
  let acc = ref [] in
  for i = 0 to n - 2 do
    acc := arc i (i + 1) 1 (1 + Prng.int rng maxcost) :: !acc
  done;
  let count = ref 0 in
  while !count < m do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v then begin
      acc := arc u v 1 (1 + Prng.int rng maxcost) :: !acc;
      incr count
    end
  done;
  let g = Digraph.create n !acc in
  (* Build a trivially feasible demand: route one unit across each of a few
     distinct arcs (each unit can be satisfied by that very arc). *)
  let sigma = Array.make n 0 in
  let m_total = Digraph.m g in
  let used = Hashtbl.create 16 in
  let wanted = 1 + Prng.int rng (max 1 (n / 4)) in
  let placed = ref 0 in
  let attempts = ref 0 in
  while !placed < wanted && !attempts < 50 * wanted do
    incr attempts;
    let id = Prng.int rng m_total in
    if not (Hashtbl.mem used id) then begin
      Hashtbl.replace used id ();
      let a = Digraph.arc g id in
      sigma.(a.Digraph.src) <- sigma.(a.Digraph.src) + 1;
      sigma.(a.Digraph.dst) <- sigma.(a.Digraph.dst) - 1;
      incr placed
    end
  done;
  (g, sigma)
