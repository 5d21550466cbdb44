let volume g inside =
  let acc = ref 0. in
  for v = 0 to Graph.n g - 1 do
    if inside.(v) then acc := !acc +. Graph.weighted_degree g v
  done;
  !acc

let cut_weight g inside =
  Array.fold_left
    (fun acc e ->
      if inside.(e.Graph.u) <> inside.(e.Graph.v) then acc +. e.Graph.w
      else acc)
    0. (Graph.edges g)

let of_cut g inside =
  let vol_in = volume g inside in
  let vol_out =
    Array.fold_left (fun acc e -> acc +. (2. *. e.Graph.w)) 0. (Graph.edges g)
    -. vol_in
  in
  let denom = Float.min vol_in vol_out in
  if denom <= 0. then infinity else cut_weight g inside /. denom

(* The cut scan behind [exact_cut]: masks [1 .. last] in increasing order,
   bit [b] of a mask putting vertex [b + 1] inside with vertex 0. Each
   cut's conductance is [of_cut]'s, term for term and in the same order
   ([deg] holds the [weighted_degree] folds, [total2] the 2Σw fold), so
   its bits are too. Returns the first mask of least conductance, or -1
   when no cut is below infinity, and leaves that conductance in
   [best_phi.(0)] (a float array, so that nothing is boxed). *)
(* cc_lint: hot scan_cuts *)
let scan_cuts g deg total2 last best_phi_out =
  let n = Graph.n g in
  let edges = Graph.edges g in
  let best = ref (-1) in
  let best_phi = ref infinity in
  for mask = 1 to last do
    let vol_in = ref (0. +. deg.(0)) in
    for v = 1 to n - 1 do
      if (mask lsr (v - 1)) land 1 = 1 then vol_in := !vol_in +. deg.(v)
    done;
    let vol_out = total2 -. !vol_in in
    let denom = Float.min !vol_in vol_out in
    if denom > 0. then begin
      let cut = ref 0. in
      for i = 0 to Array.length edges - 1 do
        let e = edges.(i) in
        let side_u = e.Graph.u = 0 || (mask lsr (e.Graph.u - 1)) land 1 = 1 in
        let side_v = e.Graph.v = 0 || (mask lsr (e.Graph.v - 1)) land 1 = 1 in
        if side_u <> side_v then cut := !cut +. e.Graph.w
      done;
      let phi = !cut /. denom in
      if phi < !best_phi then begin
        best_phi := phi;
        best := mask
      end
    end
  done;
  best_phi_out.(0) <- !best_phi;
  !best

let exact_cut g =
  let n = Graph.n g in
  if n > 20 then invalid_arg "Conductance.exact_cut: too large (n > 20)";
  (* The all-inside mask is not a cut. *)
  let last = if n < 2 then 0 else (1 lsl (n - 1)) - 2 in
  let deg = Array.init n (fun v -> Graph.weighted_degree g v) in
  let total2 =
    Array.fold_left (fun acc e -> acc +. (2. *. e.Graph.w)) 0. (Graph.edges g)
  in
  let phi = [| infinity |] in
  match scan_cuts g deg total2 last phi with
  | -1 -> (Array.make n false, infinity)
  | mask ->
    (Array.init n (fun v -> v = 0 || (mask lsr (v - 1)) land 1 = 1), phi.(0))

let exact g =
  let n = Graph.n g in
  if n > 20 then invalid_arg "Conductance.exact: too large (n > 20)";
  if n < 2 then infinity
  else begin
    let best = ref infinity in
    (* Enumerate subsets containing vertex 0 (complement symmetry). *)
    for mask = 1 to (1 lsl (n - 1)) - 1 do
      let inside = Array.make n false in
      inside.(0) <- true;
      for b = 0 to n - 2 do
        if (mask lsr b) land 1 = 1 then inside.(b + 1) <- true
      done;
      let all = Array.for_all (fun x -> x) inside in
      if not all then best := Float.min !best (of_cut g inside)
    done;
    (* Also the cuts not containing vertex 0 are complements: covered. *)
    !best
  end

let sweep_cut g x =
  let n = Graph.n g in
  if n < 2 then ([| true |], infinity)
  else begin
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare x.(a) x.(b)) order;
    let inside = Array.make n false in
    let total_vol =
      Array.fold_left (fun acc e -> acc +. (2. *. e.Graph.w)) 0.
        (Graph.edges g)
    in
    let vol_in = ref 0. in
    let cut = ref 0. in
    let best = ref infinity in
    let best_prefix = ref 1 in
    for k = 0 to n - 2 do
      let v = order.(k) in
      inside.(v) <- true;
      vol_in := !vol_in +. Graph.weighted_degree g v;
      (* Adding v flips the crossing status of each incident edge. *)
      List.iter
        (fun (u, id) ->
          let w = (Graph.edge g id).Graph.w in
          if inside.(u) then cut := !cut -. w else cut := !cut +. w)
        (Graph.adj g v);
      let denom = Float.min !vol_in (total_vol -. !vol_in) in
      let phi = if denom <= 0. then infinity else !cut /. denom in
      if phi < !best then begin
        best := phi;
        best_prefix := k + 1
      end
    done;
    let result = Array.make n false in
    for k = 0 to !best_prefix - 1 do
      result.(order.(k)) <- true
    done;
    (result, !best)
  end
