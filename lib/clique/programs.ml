module type S = sig
  type runtime

  val bfs : runtime -> Graph.t -> int -> int array

  val bellman_ford : runtime -> Graph.t -> int -> float array

  val three_color :
    runtime ->
    ids:int array ->
    succ:int array ->
    pred:int array ->
    int array * int

  val boruvka : runtime -> Graph.t -> int list * float * int
end

(* Edge [a] is lighter than edge [b]: by weight, then by id. Weights are
   finite and positive ([Graph.create] admits no other), so this is the
   order polymorphic [<] gives on [(w, id)] pairs, without building them. *)
let lighter g a b =
  let wa = (Graph.edge g a).Graph.w and wb = (Graph.edge g b).Graph.w in
  wa < wb || (wa = wb && a < b)

(* Deduplicated adjacency sets (parallel edges carry one message, like the
   CONGEST kernel's adjacency sets). *)
let neighbor_sets g =
  let n = Graph.n g in
  let sets = Array.init n (fun _ -> Hashtbl.create 4) in
  Array.iter
    (fun e ->
      Hashtbl.replace sets.(e.Graph.u) e.Graph.v ();
      Hashtbl.replace sets.(e.Graph.v) e.Graph.u ())
    (Graph.edges g);
  sets

let neighbor_lists g =
  Array.map
    (fun s -> Hashtbl.fold (fun u () acc -> u :: acc) s [])
    (neighbor_sets g)

module Make (R : Runtime.S) = struct
  type runtime = R.t

  let require_n rt k what =
    if R.n rt <> k then
      invalid_arg (Printf.sprintf "Programs.%s: runtime has %d nodes, need %d"
                     what (R.n rt) k)

  (* Distributed BFS by flooding: every frontier node tells its neighbours
     its distance; rounds = eccentricity of the source + 1 (the final round
     in which the last frontier discovers nobody). The per-node step reads
     only pre-round state, so [exchange_map] may fan it over domains. *)
  let bfs rt g s =
    let n = Graph.n g in
    require_n rt n "bfs";
    R.with_phase rt "bfs" @@ fun () ->
    let sets = neighbor_sets g in
    let neighbors =
      Array.map (fun s -> Hashtbl.fold (fun u () acc -> u :: acc) s []) sets
    in
    let dist = Array.make n (-1) in
    dist.(s) <- 0;
    let in_frontier = Array.make n false in
    in_frontier.(s) <- true;
    let frontier_nonempty = ref true in
    while !frontier_nonempty do
      let inboxes =
        R.exchange_map rt (fun v ->
            if in_frontier.(v) then
              List.map (fun u -> (u, [| dist.(v) |])) neighbors.(v)
            else [])
      in
      Array.fill in_frontier 0 n false;
      frontier_nonempty := false;
      Array.iteri
        (fun v msgs ->
          if dist.(v) < 0 then
            List.iter
              (fun (src, payload) ->
                (* Accept only neighbours' announcements: a no-op on the
                   unicast kernels (non-neighbours never address v), the
                   correctness filter on the broadcast kernel, where v
                   hears every frontier node. *)
                if dist.(v) < 0 && Hashtbl.mem sets.(v) src then begin
                  dist.(v) <- payload.(0) + 1;
                  in_frontier.(v) <- true;
                  frontier_nonempty := true
                end)
              msgs)
        inboxes
    done;
    dist

  (* Distributed Bellman–Ford: every node with a finite distance tells its
     neighbours, fixed-point encoded to fit the word model. *)
  let bellman_ford rt g s =
    let n = Graph.n g in
    require_n rt n "bellman_ford";
    R.with_phase rt "bellman-ford" @@ fun () ->
    let neighbors = neighbor_lists g in
    let dist = Array.make n infinity in
    dist.(s) <- 0.;
    let scale = 1024. in
    let changed = ref true in
    while !changed do
      changed := false;
      let inboxes =
        R.exchange_map rt (fun v ->
            if dist.(v) < infinity then
              List.map
                (fun u ->
                  (u, [| int_of_float (Float.round (dist.(v) *. scale)) |]))
                neighbors.(v)
            else [])
      in
      Array.iteri
        (fun v msgs ->
          List.iter
            (fun (src, payload) ->
              let d_src = float_of_int payload.(0) /. scale in
              (* Lightest edge between src and v. *)
              let w = ref infinity in
              List.iter
                (fun (u, id) ->
                  if u = src then
                    w := Float.min !w (Graph.edge g id).Graph.w)
                (Graph.adj g v);
              let cand = d_src +. !w in
              if cand < dist.(v) -. 1e-9 then begin
                dist.(v) <- cand;
                changed := true
              end)
            msgs)
        inboxes;
    done;
    dist

  (* Cole–Vishkin 3-coloring of a cycle cover, as real node programs:
     1 round to learn the successor's color, one round per CV reduction
     step, then 3 shift-down rounds (classes 5, 4, 3). Returns the colors
     and the rounds the chain used — the quantity Theorem 1.4 charges. *)
  let three_color rt ~ids ~succ ~pred =
    let k = Array.length ids in
    if Array.length succ <> k || Array.length pred <> k then
      invalid_arg "Programs.three_color: array length mismatch";
    if k < 2 then invalid_arg "Programs.three_color: need at least 2 positions";
    require_n rt k "three_color";
    R.with_phase rt "coloring" @@ fun () ->
    let start = R.rounds rt in
    let colors = Array.copy ids in
    let succ_color = Array.make k 0 in
    (* One round: every position sends its color to its predecessor, so
       everyone learns its successor's current color. *)
    let learn_succ () =
      let inboxes =
        R.exchange_map rt (fun i -> [ (pred.(i), [| colors.(i) |]) ])
      in
      Array.iteri
        (fun i msgs ->
          List.iter
            (fun (src, payload) ->
              if src = succ.(i) then succ_color.(i) <- payload.(0))
            msgs)
        inboxes
    in
    learn_succ ();
    while Coloring.max_color colors >= 6 do
      for i = 0 to k - 1 do
        colors.(i) <- Coloring.cv_combine colors.(i) succ_color.(i)
      done;
      learn_succ ()
    done;
    (* Shift-down recoloring: vertices of class c >= 3 simultaneously pick
       the smallest color in {0,1,2} unused by their two neighbours. One
       both-directions exchange per class; same-class vertices are never
       adjacent, so parallel recoloring stays proper. *)
    let sc = Array.make k 0 and pc = Array.make k 0 in
    for c = 5 downto 3 do
      let inboxes =
        (* On a 2-ring pred.(i) = succ.(i): one message suffices (the
           receiver's succ and pred tests both match it), and sending two
           would list the same destination twice in one outbox. *)
        R.exchange_map rt (fun i ->
            if pred.(i) = succ.(i) then [ (pred.(i), [| colors.(i) |]) ]
            else
              [ (pred.(i), [| colors.(i) |]); (succ.(i), [| colors.(i) |]) ])
      in
      Array.iteri
        (fun i msgs ->
          List.iter
            (fun (src, payload) ->
              if src = succ.(i) then sc.(i) <- payload.(0);
              if src = pred.(i) then pc.(i) <- payload.(0))
            msgs)
        inboxes;
      for i = 0 to k - 1 do
        if colors.(i) = c then begin
          let a = sc.(i) and b = pc.(i) in
          let pick = ref 0 in
          while !pick = a || !pick = b do
            incr pick
          done;
          colors.(i) <- !pick
        end
      done
    done;
    (colors, R.rounds rt - start)

  (* Borůvka MST: per phase every node broadcasts its component label
     (1 round) and its minimum outgoing edge (1 round); all nodes then
     apply the same merge decisions to the shared global view. Returns
     (mst edge ids, weight, phases). *)
  let boruvka rt g =
    let n = Graph.n g in
    require_n rt n "boruvka";
    if not (Graph.is_connected g) then
      invalid_arg "Programs.boruvka: graph must be connected";
    let label = Array.init n (fun v -> v) in
    let chosen = ref [] in
    let phases = ref 0 in
    let components = ref n in
    while !components > 1 do
      incr phases;
      (* Round 1: everyone learns every node's component label. *)
      let labels =
        R.with_phase rt "labels" (fun () ->
            Array.map
              (fun l -> l.(0))
              (R.broadcast rt (Array.map (fun l -> [| l |]) label)))
      in
      (* Locally: each node picks its lightest edge leaving its component. *)
      let candidate = Array.make n (-1) in
      for v = 0 to n - 1 do
        List.iter
          (fun (u, id) ->
            if labels.(u) <> labels.(v) then
              match candidate.(v) with
              | -1 -> candidate.(v) <- id
              | best ->
                if lighter g id best then candidate.(v) <- id)
          (Graph.adj g v)
      done;
      (* Round 2: broadcast the candidates; everyone now shares the merge
         decisions and applies them identically. *)
      let shared =
        R.with_phase rt "candidates" (fun () ->
            Array.map
              (fun c -> c.(0))
              (R.broadcast rt (Array.map (fun c -> [| c |]) candidate)))
      in
      (* Per component, keep only its lightest candidate, then union. *)
      let best_of_component = Hashtbl.create 16 in
      Array.iteri
        (fun v id ->
          if id >= 0 then begin
            let c = labels.(v) in
            match Hashtbl.find_opt best_of_component c with
            | None -> Hashtbl.replace best_of_component c id
            | Some cur ->
              if lighter g id cur then
                Hashtbl.replace best_of_component c id
          end)
        shared;
      let uf = Unionfind.create n in
      (* Rebuild current components, then merge along the selected edges. *)
      for v = 0 to n - 1 do
        ignore (Unionfind.union uf v label.(v))
      done;
      Hashtbl.iter
        (fun _ id ->
          let e = Graph.edge g id in
          if Unionfind.union uf e.Graph.u e.Graph.v then
            chosen := id :: !chosen)
        best_of_component;
      for v = 0 to n - 1 do
        label.(v) <- Unionfind.find uf v
      done;
      components := Unionfind.count uf
    done;
    let edges = List.sort_uniq compare !chosen in
    let weight =
      List.fold_left (fun acc id -> acc +. (Graph.edge g id).Graph.w) 0. edges
    in
    (edges, weight, !phases)
end
