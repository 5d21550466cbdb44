type t = float array

let excess g f =
  let ex = Array.make (Digraph.n g) 0. in
  Array.iteri
    (fun id a ->
      ex.(a.Digraph.dst) <- ex.(a.Digraph.dst) +. f.(id);
      ex.(a.Digraph.src) <- ex.(a.Digraph.src) -. f.(id))
    (Digraph.arcs g);
  ex

let value g ~s ~f =
  let ex = excess g f in
  -.ex.(s)

let cost g f =
  let acc = ref 0. in
  Array.iteri
    (fun id a -> acc := !acc +. (float_of_int a.Digraph.cost *. f.(id)))
    (Digraph.arcs g);
  !acc

let check_terminals entry g ~s ~t =
  if s = t then invalid_arg (entry ^ ": s = t");
  let n = Digraph.n g in
  let check name v =
    if v < 0 || v >= n then
      Printf.ksprintf invalid_arg "%s: terminal %s = %d is outside [0, %d)"
        entry name v n
  in
  check "s" s;
  check "t" t

let conservation_violation g ~s ~t ~f =
  let ex = excess g f in
  let worst = ref 0. in
  Array.iteri
    (fun v e -> if v <> s && v <> t then worst := Float.max !worst (Float.abs e))
    ex;
  !worst

let demand_violation g ~sigma ~f =
  let ex = excess g f in
  let worst = ref 0. in
  Array.iteri
    (fun v e ->
      worst := Float.max !worst (Float.abs (e +. float_of_int sigma.(v))))
    ex;
  !worst

let capacity_violation g ~f =
  let worst = ref 0. in
  Array.iteri
    (fun id a ->
      worst := Float.max !worst (f.(id) -. float_of_int a.Digraph.cap);
      worst := Float.max !worst (-.f.(id)))
    (Digraph.arcs g);
  !worst

let is_feasible ?(tol = 1e-9) g ~s ~t ~f =
  conservation_violation g ~s ~t ~f <= tol && capacity_violation g ~f <= tol

let is_integral ?(tol = 1e-9) f =
  Array.for_all (fun x -> Float.abs (x -. Float.round x) <= tol) f

let round_to_int f = Array.map (fun x -> int_of_float (Float.round x)) f
