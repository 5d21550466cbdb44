let lowest_differing_bit a b =
  let x = a lxor b in
  if x = 0 then invalid_arg "Coloring.cv_combine: adjacent colors equal";
  let rec loop i x = if x land 1 = 1 then i else loop (i + 1) (x lsr 1) in
  loop 0 x

let cv_combine c cs =
  let k = lowest_differing_bit c cs in
  (2 * k) + ((c lsr k) land 1)

let max_color colors = Array.fold_left max 0 colors

let is_proper colors ~succ =
  let ok = ref true in
  Array.iteri
    (fun i c ->
      if succ.(i) <> i && colors.(succ.(i)) = c then ok := false)
    colors;
  !ok

let maximal_matching_on_cycles ~colors ~succ ~pred =
  let k = Array.length colors in
  let matched_vertex = Array.make k false in
  let matched = Array.make k false in
  for c = 0 to 2 do
    for i = 0 to k - 1 do
      if colors.(i) = c then begin
        let j = succ.(i) in
        if (not matched_vertex.(i)) && not matched_vertex.(j) then begin
          matched.(i) <- true;
          matched_vertex.(i) <- true;
          matched_vertex.(j) <- true
        end
      end
    done
  done;
  ignore pred;
  matched

let log_star n =
  let rec loop n acc = if n <= 1 then acc else loop (int_of_float (Float.log2 (float_of_int n))) (acc + 1) in
  if n <= 1 then 0 else loop n 0
