type t = {
  n_rows : int;
  n_cols : int;
  row_ptr : int array; (* length n_rows + 1 *)
  col_idx : int array; (* length nnz, sorted within each row *)
  values : float array; (* length nnz *)
}

let rows a = a.n_rows

let cols a = a.n_cols

let nnz a = Array.length a.values

let of_triplets ~rows:n_rows ~cols:n_cols triplets =
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= n_rows || j < 0 || j >= n_cols then
        invalid_arg
          (Printf.sprintf "Csr.of_triplets: index (%d,%d) out of range" i j))
    triplets;
  let sorted =
    List.sort
      (fun (i1, j1, _) (i2, j2, _) -> compare (i1, j1) (i2, j2))
      triplets
  in
  (* Merge duplicates, drop zeros. *)
  let merged = ref [] in
  List.iter
    (fun (i, j, v) ->
      match !merged with
      | (i', j', v') :: rest when i = i' && j = j' ->
        merged := (i, j, v +. v') :: rest
      | _ -> merged := (i, j, v) :: !merged)
    sorted;
  let entries = List.rev (List.filter (fun (_, _, v) -> v <> 0.) !merged) in
  let m = List.length entries in
  let row_ptr = Array.make (n_rows + 1) 0 in
  let col_idx = Array.make m 0 in
  let values = Array.make m 0. in
  List.iteri
    (fun k (i, j, v) ->
      row_ptr.(i + 1) <- row_ptr.(i + 1) + 1;
      col_idx.(k) <- j;
      values.(k) <- v)
    entries;
  for i = 0 to n_rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  { n_rows; n_cols; row_ptr; col_idx; values }

let iter_row a i f =
  for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
    f a.col_idx.(k) a.values.(k)
  done

let iter a f =
  for i = 0 to a.n_rows - 1 do
    iter_row a i (fun j v -> f i j v)
  done

let get a i j =
  let r = ref 0. in
  iter_row a i (fun j' v -> if j = j' then r := v);
  !r

(* cc_lint: hot mul_vec_into *)
let mul_vec_into a x y =
  if Array.length x <> a.n_cols then
    invalid_arg "Csr.mul_vec_into: dimension mismatch";
  if Array.length y <> a.n_rows then
    invalid_arg "Csr.mul_vec_into: output dimension mismatch";
  for i = 0 to a.n_rows - 1 do
    let s = ref 0. in
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      s := !s +. (a.values.(k) *. x.(a.col_idx.(k)))
    done;
    y.(i) <- !s
  done

let mul_vec_transpose a x =
  if Array.length x <> a.n_rows then
    invalid_arg "Csr.mul_vec_transpose: dimension mismatch";
  let y = Vec.create a.n_cols in
  iter a (fun i j v -> y.(j) <- y.(j) +. (v *. x.(i)));
  y

let diag a =
  let d = Vec.create (min a.n_rows a.n_cols) in
  iter a (fun i j v -> if i = j then d.(i) <- v);
  d

let triplets_of a =
  let acc = ref [] in
  iter a (fun i j v -> acc := (i, j, v) :: !acc);
  List.rev !acc

let transpose a =
  of_triplets ~rows:a.n_cols ~cols:a.n_rows
    (List.map (fun (i, j, v) -> (j, i, v)) (triplets_of a))

let scale s a = { a with values = Array.map (fun v -> s *. v) a.values }

let add a b =
  if a.n_rows <> b.n_rows || a.n_cols <> b.n_cols then
    invalid_arg "Csr.add: dimension mismatch";
  of_triplets ~rows:a.n_rows ~cols:a.n_cols (triplets_of a @ triplets_of b)

let to_dense a =
  let d = Array.make_matrix a.n_rows a.n_cols 0. in
  iter a (fun i j v -> d.(i).(j) <- v);
  d

let of_dense ?(eps = 0.) d =
  let n = Array.length d in
  let m = if n = 0 then 0 else Array.length d.(0) in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      if Float.abs d.(i).(j) > eps then acc := (i, j, d.(i).(j)) :: !acc
    done
  done;
  of_triplets ~rows:n ~cols:m !acc

let is_symmetric ?(eps = 1e-9) a =
  a.n_rows = a.n_cols
  &&
  let ok = ref true in
  iter a (fun i j v -> if Float.abs (v -. get a j i) > eps then ok := false);
  !ok

let pp fmt a =
  Format.fprintf fmt "@[<v>csr %dx%d nnz=%d@," a.n_rows a.n_cols (nnz a);
  iter a (fun i j v -> Format.fprintf fmt "(%d,%d)=%g@," i j v);
  Format.fprintf fmt "@]"
