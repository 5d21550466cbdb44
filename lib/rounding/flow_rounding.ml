type result = {
  f : float array;
  rounds : int;
  levels : int;
  phase_rounds : (string * int) list;
}

let is_power_of_two k = k > 0 && k land (k - 1) = 0

let snap_to_grid ~delta f =
  let ok = ref true in
  let snapped =
    Array.map
      (fun x ->
        let k = Float.round (x /. delta) in
        if Float.abs (x -. (k *. delta)) > delta /. 4. then ok := false;
        k *. delta)
      f
  in
  if !ok then Some snapped else None

(* Work in exact integer grid units; level ℓ adjusts by 2^ℓ units. *)
let round ?cost g ~s ~t ~delta f =
  let m = Digraph.m g in
  if Array.length f <> m then
    invalid_arg "Flow_rounding.round: flow length mismatch";
  let inv = Float.round (1. /. delta) in
  let grain = int_of_float inv in
  if Float.abs ((1. /. delta) -. inv) > 1e-9 || not (is_power_of_two grain)
  then invalid_arg "Flow_rounding.round: 1/delta must be a power of two";
  let units = Array.make (m + 1) 0 in
  Array.iteri
    (fun e x ->
      let k = Float.round (x /. delta) in
      if Float.abs (x -. (k *. delta)) > 1e-6 *. delta then
        invalid_arg "Flow_rounding.round: flow not on the delta grid";
      if k < -0.5 then invalid_arg "Flow_rounding.round: negative flow";
      units.(e) <- int_of_float k)
    f;
  (* Virtual (t,s) arc closing the circulation (Algorithm 1, lines 1–2). *)
  let total_units =
    let acc = ref 0 in
    Array.iteri
      (fun e a ->
        if a.Digraph.src = s then acc := !acc + units.(e);
        if a.Digraph.dst = s then acc := !acc - units.(e))
      (Digraph.arcs g);
    !acc
  in
  if total_units < 0 then
    invalid_arg "Flow_rounding.round: net flow runs t -> s";
  units.(m) <- total_units;
  let aux = m in
  let src_of e = if e = aux then t else (Digraph.arc g e).Digraph.src in
  let dst_of e = if e = aux then s else (Digraph.arc g e).Digraph.dst in
  (* Check grid conservation away from the (now virtual-closed) terminals. *)
  let balance = Array.make (Digraph.n g) 0 in
  for e = 0 to m do
    balance.(src_of e) <- balance.(src_of e) - units.(e);
    balance.(dst_of e) <- balance.(dst_of e) + units.(e)
  done;
  Array.iteri
    (fun v b ->
      if b <> 0 then
        invalid_arg
          (Printf.sprintf
             "Flow_rounding.round: grid conservation violated at %d (%d)" v b))
    balance;
  let ledger = Runtime.Cost.create () in
  let levels = Runtime.Cost.log2_ceil grain in
  for level = 0 to levels - 1 do
    let step = 1 lsl level in
    let odd = ref [] in
    for e = m downto 0 do
      if (units.(e) lsr level) land 1 = 1 then odd := e :: !odd
    done;
    if !odd <> [] then begin
      (* Build the Eulerian multigraph of odd arcs, remembering for every
         undirected edge which arc it came from. *)
      let odd_arr = Array.of_list !odd in
      let edges =
        Array.to_list
          (Array.map
             (fun e -> { Graph.u = src_of e; v = dst_of e; w = 1. })
             odd_arr)
      in
      let h = Graph.create (Digraph.n g) edges in
      let choose ring =
        (* ring positions map 1:1 to odd_arr indices via Orientation's
           ring_edge.edge field (edge ids of h = indices into odd_arr).
           along = trail traverses the arc in its own direction. *)
        let has_aux =
          List.find_opt
            (fun re -> odd_arr.(re.Euler.Orientation.edge) = aux)
            ring
        in
        match has_aux with
        | Some re -> re.Euler.Orientation.along
        | None -> begin
          match cost with
          | None -> true
          | Some c ->
            let fwd_keep = ref 0. and bwd_keep = ref 0. in
            List.iter
              (fun re ->
                let arc = odd_arr.(re.Euler.Orientation.edge) in
                let ce = if arc = aux then 0. else c arc in
                if re.Euler.Orientation.along then fwd_keep := !fwd_keep +. ce
                else bwd_keep := !bwd_keep +. ce)
              ring;
            !fwd_keep <= !bwd_keep
        end
      in
      let r = Euler.Orientation.orient ~choose h in
      Runtime.Cost.charge ledger ~phase:"orient" r.Euler.Orientation.rounds;
      Array.iteri
        (fun hid arc ->
          if r.Euler.Orientation.orientation.(hid) then
            units.(arc) <- units.(arc) + step
          else units.(arc) <- units.(arc) - step)
        odd_arr
    end
  done;
  (* After [levels] doublings every unit count is a multiple of 1/delta,
     so the result is exactly integral. *)
  let f' =
    Array.init m (fun e -> Float.round (float_of_int units.(e) *. delta))
  in
  {
    f = f';
    rounds = Runtime.Cost.rounds ledger;
    levels;
    phase_rounds = Runtime.Cost.phases ledger;
  }
