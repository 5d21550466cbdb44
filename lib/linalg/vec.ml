type t = float array

let create n = Array.make n 0.

let init = Array.init

let copy = Array.copy

let dim = Array.length

let of_list = Array.of_list

let basis n i =
  let v = create n in
  v.(i) <- 1.;
  v

let constant n c = Array.make n c

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
                   (Array.length x) (Array.length y))

(* Zero-allocation kernels: every [_into] writes its full result into a
   caller-owned destination and allocates nothing. The element expressions
   are kept literally identical to the allocating wrappers below so the two
   paths are bit-identical (pinned by test_linalg). *)
(* cc_lint: hot add_into sub_into scale_into axpy_into copy_into fill center_into *)

let add_into x y dst =
  check_dims "add_into" x y;
  check_dims "add_into" x dst;
  for i = 0 to Array.length x - 1 do
    dst.(i) <- x.(i) +. y.(i)
  done

let sub_into x y dst =
  check_dims "sub_into" x y;
  check_dims "sub_into" x dst;
  for i = 0 to Array.length x - 1 do
    dst.(i) <- x.(i) -. y.(i)
  done

let scale_into a x dst =
  check_dims "scale_into" x dst;
  for i = 0 to Array.length x - 1 do
    dst.(i) <- a *. x.(i)
  done

let axpy_into a x y dst =
  check_dims "axpy_into" x y;
  check_dims "axpy_into" x dst;
  for i = 0 to Array.length x - 1 do
    dst.(i) <- (a *. x.(i)) +. y.(i)
  done

let copy_into x dst =
  check_dims "copy_into" x dst;
  Array.blit x 0 dst 0 (Array.length x)

let fill dst c = Array.fill dst 0 (Array.length dst) c

let sub x y =
  check_dims "sub" x y;
  let dst = create (Array.length x) in
  sub_into x y dst;
  dst

let scale a x =
  let dst = create (Array.length x) in
  scale_into a x dst;
  dst

let axpy a x y =
  check_dims "axpy" x y;
  let dst = create (Array.length x) in
  axpy_into a x y dst;
  dst

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun m xi -> Float.max m (Float.abs xi)) 0. x

let dist2 x y =
  check_dims "dist2" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let sum x = Array.fold_left ( +. ) 0. x

let mean x =
  if Array.length x = 0 then 0. else sum x /. float_of_int (Array.length x)

let center_into x dst =
  check_dims "center_into" x dst;
  let n = Array.length x in
  (* Mean inlined: a cross-function call returning [float] would box the
     result, defeating the zero-allocation contract of the hot kernels. *)
  let s = ref 0. in
  for i = 0 to n - 1 do
    s := !s +. x.(i)
  done;
  let m = if n = 0 then 0. else !s /. float_of_int n in
  for i = 0 to n - 1 do
    dst.(i) <- x.(i) -. m
  done

let center x =
  let dst = create (Array.length x) in
  center_into x dst;
  dst

let normalize x =
  let n = norm2 x in
  (* A zero vector must still come back fresh: returning [x] itself would
     alias the caller's buffer, and a later in-place write through the
     "normalized" result would corrupt the original. *)
  if n = 0. then copy x else scale (1. /. n) x

let map2 f x y =
  check_dims "map2" x y;
  Array.init (Array.length x) (fun i -> f x.(i) y.(i))

let equal ?(eps = 1e-9) x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  for i = 0 to Array.length x - 1 do
    if Float.abs (x.(i) -. y.(i)) > eps then ok := false
  done;
  !ok

let pp fmt x =
  Format.fprintf fmt "[|";
  Array.iteri
    (fun i xi ->
      if i > 0 then Format.fprintf fmt "; ";
      Format.fprintf fmt "%g" xi)
    x;
  Format.fprintf fmt "|]"
