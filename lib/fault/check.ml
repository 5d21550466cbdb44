(* Certified output checkers. Each validator re-derives a pipeline
   output's defining invariants directly from the input instance — never
   from the algorithm's intermediate state — and returns either [Pass] or
   a counterexample naming the violated invariant and the witness. All
   checkers are deterministic, allocation-light, and O(m) or O(m + n). *)

type verdict = Pass | Fail of { invariant : string; counterexample : string }

let fail invariant fmt =
  Printf.ksprintf (fun counterexample -> Fail { invariant; counterexample }) fmt

let to_string = function
  | Pass -> "pass"
  | Fail { invariant; counterexample } ->
    Printf.sprintf "FAIL[%s]: %s" invariant counterexample

(* Combinator: first failure wins. *)
let all checks = List.fold_left
    (fun acc c -> match acc with Pass -> c () | f -> f)
    Pass checks

(* ------------------------------------------------------------- BFS tree *)

let bfs_tree g ~root dist =
  let n = Graph.n g in
  all
    [
      (fun () ->
        if Array.length dist <> n then
          fail "shape" "distance array has %d entries for %d nodes"
            (Array.length dist) n
        else Pass);
      (fun () ->
        if dist.(root) <> 0 then
          fail "root" "dist(root=%d) = %d, expected 0" root dist.(root)
        else Pass);
      (fun () ->
        (* Both endpoints of an edge are reached or neither; reached
           levels differ by at most one. *)
        let bad = ref Pass in
        Array.iteri
          (fun id (e : Graph.edge) ->
            if !bad = Pass then
              let du = dist.(e.u) and dv = dist.(e.v) in
              if (du < 0) <> (dv < 0) then
                bad :=
                  fail "reachability"
                    "edge %d = (%d,%d): dist %d vs %d — reached and \
                     unreached endpoints"
                    id e.u e.v du dv
              else if du >= 0 && abs (du - dv) > 1 then
                bad :=
                  fail "edge-level"
                    "edge %d = (%d,%d): levels %d and %d differ by more \
                     than 1"
                    id e.u e.v du dv)
          (Graph.edges g);
        !bad);
      (fun () ->
        (* Every reached non-root has a parent one level closer. *)
        let bad = ref Pass in
        for v = 0 to n - 1 do
          if !bad = Pass && v <> root && dist.(v) >= 0 then
            let ok =
              List.exists (fun (u, _) -> dist.(u) = dist.(v) - 1)
                (Graph.adj g v)
            in
            if not ok then
              bad :=
                fail "parent"
                  "node %d at level %d has no neighbour at level %d" v
                  dist.(v)
                  (dist.(v) - 1)
        done;
        !bad);
      (fun () ->
        if Graph.is_connected g then
          let u = ref (-1) in
          Array.iteri (fun v d -> if !u < 0 && d < 0 then u := v) dist;
          if !u >= 0 then
            fail "coverage" "connected graph but node %d was never reached"
              !u
          else Pass
        else Pass);
    ]

(* ----------------------------------------------------------------- SSSP *)

let sssp ?(eps = 1e-6) g ~src dist =
  let n = Graph.n g in
  all
    [
      (fun () ->
        if Array.length dist <> n then
          fail "shape" "distance array has %d entries for %d nodes"
            (Array.length dist) n
        else Pass);
      (fun () ->
        if Float.abs dist.(src) > eps then
          fail "root" "dist(src=%d) = %g, expected 0" src dist.(src)
        else Pass);
      (fun () ->
        (* Triangle inequality along every edge, both directions. *)
        let bad = ref Pass in
        Array.iteri
          (fun id (e : Graph.edge) ->
            if !bad = Pass then
              let du = dist.(e.u) and dv = dist.(e.v) in
              if dv > du +. e.w +. eps then
                bad :=
                  fail "relaxation"
                    "edge %d = (%d,%d,w=%g): dist %g > %g + %g" id e.u e.v
                    e.w dv du e.w
              else if du > dv +. e.w +. eps then
                bad :=
                  fail "relaxation"
                    "edge %d = (%d,%d,w=%g): dist %g > %g + %g" id e.u e.v
                    e.w du dv e.w)
          (Graph.edges g);
        !bad);
      (fun () ->
        (* Every finite non-source distance is witnessed by some tight
           incident edge. *)
        let bad = ref Pass in
        for v = 0 to n - 1 do
          if !bad = Pass && v <> src && dist.(v) < infinity then begin
            let ok = ref false in
            List.iter
              (fun (u, id) ->
                let w = (Graph.edge g id).Graph.w in
                if Float.abs (dist.(v) -. (dist.(u) +. w)) <= eps then
                  ok := true)
              (Graph.adj g v);
            if not !ok then
              bad :=
                fail "witness"
                  "node %d: dist %g is not dist(u) + w for any incident \
                   edge"
                  v dist.(v)
          end
        done;
        !bad);
    ]

(* ------------------------------------------------------------- max flow *)

let max_flow ?(tol = 1e-6) g ~s ~t ~value f =
  all
    [
      (fun () ->
        if Array.length f <> Digraph.m g then
          fail "shape" "flow vector has %d entries for %d arcs"
            (Array.length f) (Digraph.m g)
        else Pass);
      (fun () ->
        let v = Flow.capacity_violation g ~f in
        if v > tol then
          fail "capacity" "capacity/nonnegativity violated by %g" v
        else Pass);
      (fun () ->
        let v = Flow.conservation_violation g ~s ~t ~f in
        if v > tol then
          fail "conservation"
            "max |excess| over internal vertices is %g" v
        else Pass);
      (fun () ->
        let v = Flow.value g ~s ~f in
        if Float.abs (v -. value) > tol then
          fail "value" "flow ships %g units, claimed value is %g" v value
        else Pass);
    ]

(* -------------------------------------------------------- min-cost flow *)

let mcf ?(tol = 1e-6) g ~sigma ~cost_bound f =
  all
    [
      (fun () ->
        if Array.length f <> Digraph.m g then
          fail "shape" "flow vector has %d entries for %d arcs"
            (Array.length f) (Digraph.m g)
        else Pass);
      (fun () ->
        let v = Flow.capacity_violation g ~f in
        if v > tol then
          fail "capacity" "capacity/nonnegativity violated by %g" v
        else Pass);
      (fun () ->
        let v = Flow.demand_violation g ~sigma ~f in
        if v > tol then
          fail "demand" "max |excess(v) + sigma(v)| is %g" v
        else Pass);
      (fun () ->
        let c = Flow.cost g f in
        if c > cost_bound +. tol then
          fail "cost" "flow costs %g, claimed bound is %g" c cost_bound
        else Pass);
    ]

(* ------------------------------------------------- Eulerian orientation *)

let eulerian g orientation =
  let n = Graph.n g in
  all
    [
      (fun () ->
        if Array.length orientation <> Graph.m g then
          fail "shape" "orientation has %d bits for %d edges"
            (Array.length orientation) (Graph.m g)
        else Pass);
      (fun () ->
        let balance = Array.make n 0 in
        Array.iteri
          (fun id (e : Graph.edge) ->
            let u, v =
              if orientation.(id) then (e.u, e.v) else (e.v, e.u)
            in
            balance.(u) <- balance.(u) + 1;
            balance.(v) <- balance.(v) - 1)
          (Graph.edges g);
        let bad = ref Pass in
        Array.iteri
          (fun v b ->
            if !bad = Pass && b <> 0 then
              bad :=
                fail "in=out"
                  "vertex %d: out-degree minus in-degree is %d" v b)
          balance;
        !bad);
    ]

(* ---------------------------------------------------------------- MST *)

let mst ?(tol = 1e-9) g ~weight edges =
  let n = Graph.n g in
  let m = Graph.m g in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri = rj then false
    else begin
      parent.(ri) <- rj;
      true
    end
  in
  all
    [
      (fun () ->
        let seen = Array.make (max m 1) false in
        let bad = ref Pass in
        List.iter
          (fun id ->
            if !bad = Pass then
              if id < 0 || id >= m then
                fail "shape" "edge id %d out of range for %d edges" id m
                |> fun f -> bad := f
              else if seen.(id) then
                fail "shape" "edge id %d listed twice" id |> fun f ->
                bad := f
              else seen.(id) <- true)
          edges;
        !bad);
      (fun () ->
        (* Acyclic: every tree edge must join two distinct components. *)
        let bad = ref Pass in
        List.iter
          (fun id ->
            if !bad = Pass then
              let e = Graph.edge g id in
              if not (union e.Graph.u e.Graph.v) then
                bad :=
                  fail "acyclic" "edge %d = (%d,%d) closes a cycle" id
                    e.Graph.u e.Graph.v)
          edges;
        !bad);
      (fun () ->
        (* Spanning: the forest connects everything the input connects —
           after the unions above, no graph edge may still cross two
           different forest components. *)
        let bad = ref Pass in
        Array.iteri
          (fun id (e : Graph.edge) ->
            if !bad = Pass && find e.u <> find e.v then
              bad :=
                fail "spanning"
                  "graph edge %d = (%d,%d) crosses two forest components"
                  id e.u e.v)
          (Graph.edges g);
        !bad);
      (fun () ->
        let sum =
          List.fold_left
            (fun acc id -> acc +. (Graph.edge g id).Graph.w)
            0. edges
        in
        if Float.abs (sum -. weight) > tol then
          fail "weight" "edges sum to %g, claimed weight is %g" sum weight
        else Pass);
      (fun () ->
        (* Cut optimality via an independent oracle: the minimum spanning
           forest weight is unique even when the edge set is not, so a
           Kruskal re-derivation certifies optimality. *)
        let optimal =
          List.fold_left
            (fun acc id -> acc +. (Graph.edge g id).Graph.w)
            0. (Clique.Boruvka.kruskal g)
        in
        if weight > optimal +. tol then
          fail "optimality"
            "claimed weight %g exceeds the optimal forest weight %g" weight
            optimal
        else Pass);
    ]

(* ------------------------------------------------------ solver residual *)

let solver_residual ?(eps = 1e-4) g ~b x =
  let n = Graph.n g in
  all
    [
      (fun () ->
        if Array.length x <> n || Array.length b <> n then
          fail "shape" "x has %d and b has %d entries for %d nodes"
            (Array.length x) (Array.length b) n
        else Pass);
      (fun () ->
        let lx = Graph.apply_laplacian g x in
        let r2 = ref 0.0 and b2 = ref 0.0 in
        for i = 0 to n - 1 do
          let d = lx.(i) -. b.(i) in
          r2 := !r2 +. (d *. d);
          b2 := !b2 +. (b.(i) *. b.(i))
        done;
        let res = sqrt !r2 and norm = sqrt !b2 in
        if Float.is_nan res || res > (eps *. norm) +. 1e-12 then
          fail "residual" "|Lx - b| = %g exceeds eps|b| = %g (eps=%g)" res
            (eps *. norm) eps
        else Pass);
    ]

(* ------------------------------------------------------ sparsifier size *)

let sparsifier original sparse =
  let n = Graph.n original in
  let u = Float.max 1.0 (Graph.max_weight original) in
  all
    [
      (fun () ->
        if Graph.n sparse <> n then
          fail "shape" "sparsifier has %d nodes, input has %d"
            (Graph.n sparse) n
        else Pass);
      (fun () ->
        let bound = Sparsify.Spectral.size_bound ~n ~u in
        if Graph.m sparse > bound then
          fail "size-bound"
            "sparsifier keeps %d edges, Theorem 3.3 bound is %d"
            (Graph.m sparse) bound
        else Pass);
      (fun () ->
        if Graph.is_connected original && not (Graph.is_connected sparse)
        then
          fail "connectivity"
            "input is connected but the sparsifier is not (spectral \
             approximation impossible)"
        else Pass);
      (fun () ->
        let cap = float_of_int (n * n) *. u in
        let bad = ref Pass in
        Array.iteri
          (fun id (e : Graph.edge) ->
            if !bad = Pass && (not (Float.is_finite e.w) || e.w > cap) then
              bad :=
                fail "weight-sanity"
                  "sparsifier edge %d = (%d,%d) has weight %g > n^2 U = %g"
                  id e.u e.v e.w cap)
          (Graph.edges sparse);
        !bad);
    ]
