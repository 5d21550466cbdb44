let weighted_degrees g =
  Array.init (Graph.n g) (fun v -> Graph.weighted_degree g v)

let scale_of g =
  let total = Graph.total_weight g in
  if total <= 0. then 0. else 2. /. total

let need_two name g =
  if Graph.n g < 2 then
    invalid_arg (Printf.sprintf "Product_demand.%s: need n >= 2" name)

let complete g =
  need_two "complete" g;
  let n = Graph.n g in
  let d = weighted_degrees g in
  let s = scale_of g in
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let w = s *. d.(u) *. d.(v) in
      if w > 0. && w < Float.infinity then acc := { Graph.u; v; w } :: !acc
    done
  done;
  Graph.create n !acc

let default_degree n = 3 + Runtime.Cost.log2_ceil (max n 2)

(* Offsets 1, 2, 4, ... — the same deterministic circulant family as
   Gen.expander. *)
let circulant_offsets limit count =
  let rec loop o k acc =
    if k = 0 || o > limit then List.rev acc else loop (o * 2) (k - 1) (o :: acc)
  in
  if limit < 1 then [] else loop 1 count [ 1 ] |> List.sort_uniq compare

(* Binary degree classes over vertices with positive degree [d], in
   increasing class order, each listing its vertices in increasing order. *)
let degree_classes d =
  let buckets = Hashtbl.create 8 in
  Array.iteri
    (fun v dv ->
      if dv > 0. then begin
        let c = int_of_float (Float.floor (Float.log2 dv)) in
        let cur = try Hashtbl.find buckets c with Not_found -> [] in
        Hashtbl.replace buckets c (v :: cur)
      end)
    d;
  Hashtbl.fold (fun c vs acc -> (c, Array.of_list (List.rev vs)) :: acc)
    buckets []
  |> List.sort compare
  |> List.map snd
  |> Array.of_list

(* The pairs [build] places, counted from the class sizes alone. An
   intra-class circulant on [a] vertices has [a] pairs per offset, [a/2]
   when the offset is [a/2] (both endpoints name the same pair); the
   bipartite circulant from class size [a] to [b] (in class order) reaches
   [r = min t b] right vertices from each left one, covering right indices
   [0 .. a+r-2], and the sweep adds one pair per right vertex left over. *)
let count_pairs n classes =
  let t = default_degree n in
  let sizes = Array.map Array.length classes in
  let count = ref 0 in
  Array.iteri
    (fun i a ->
      if a >= 2 then
        List.iter
          (fun o -> count := !count + if 2 * o = a then a / 2 else a)
          (circulant_offsets (a / 2) t);
      for j = i + 1 to Array.length sizes - 1 do
        let b = sizes.(j) in
        let r = min t b in
        count := !count + (a * r) + max 0 (b - (a + r - 1))
      done)
    sizes;
  !count

(* The stand-in for [g] with weighted degrees [d] and their [classes]. *)
let build g d classes =
  let n = Graph.n g in
  let t = default_degree n in
  let s = scale_of g in
  let acc = ref [] in
  let add_edges pairs mass =
    (* Distribute [mass] over [pairs] proportionally to d_u·d_v. *)
    let z =
      List.fold_left (fun z (u, v) -> z +. (d.(u) *. d.(v))) 0. pairs
    in
    if z > 0. && mass > 0. then
      List.iter
        (fun (u, v) ->
          let w = mass *. d.(u) *. d.(v) /. z in
          if w > 0. && w < Float.infinity then
            acc := { Graph.u; v; w } :: !acc)
        pairs
  in
  let k = Array.length classes in
  for i = 0 to k - 1 do
    let bi = classes.(i) in
    let si = Array.fold_left (fun z v -> z +. d.(v)) 0. bi in
    (* Intra-class circulant expander. *)
    let a = Array.length bi in
    if a >= 2 then begin
      let sq = Array.fold_left (fun z v -> z +. (d.(v) *. d.(v))) 0. bi in
      let mass = s *. ((si *. si) -. sq) /. 2. in
      let offsets = circulant_offsets (a / 2) t in
      let pairs = ref [] in
      List.iter
        (fun o ->
          for p = 0 to a - 1 do
            let q = (p + o) mod a in
            if q <> p then pairs := (bi.(min p q), bi.(max p q)) :: !pairs
          done)
        offsets;
      (* Deduplicate (each undirected pair appears from both endpoints, and
         wrap-around can revisit a pair when 2o = a). *)
      let tbl = Hashtbl.create 16 in
      let uniq =
        List.filter
          (fun (u, v) ->
            let key = (min u v, max u v) in
            if Hashtbl.mem tbl key then false
            else begin
              Hashtbl.replace tbl key ();
              true
            end)
          !pairs
      in
      add_edges uniq mass
    end;
    (* Inter-class bipartite circulants. *)
    for j = i + 1 to k - 1 do
      let bj = classes.(j) in
      let sj = Array.fold_left (fun z v -> z +. d.(v)) 0. bj in
      let mass = s *. si *. sj in
      let a = Array.length bi and b = Array.length bj in
      let reach = min t b in
      let pairs = ref [] in
      for p = 0 to a - 1 do
        for off = 0 to reach - 1 do
          pairs := (bi.(p), bj.((p + off) mod b)) :: !pairs
        done
      done;
      (* When the left class is tiny, some right vertices would be missed;
         sweep the other direction too. *)
      let covered = Hashtbl.create 16 in
      List.iter (fun (_, v) -> Hashtbl.replace covered v ()) !pairs;
      Array.iteri
        (fun q v ->
          if not (Hashtbl.mem covered v) then
            pairs := (bi.(q mod a), v) :: !pairs)
        bj;
      let tbl = Hashtbl.create 16 in
      let uniq =
        List.filter
          (fun (u, v) ->
            if Hashtbl.mem tbl (u, v) then false
            else begin
              Hashtbl.replace tbl (u, v) ();
              true
            end)
          !pairs
      in
      add_edges uniq mass
    done
  done;
  Graph.create n !acc

let sparse g =
  need_two "sparse" g;
  let d = weighted_degrees g in
  build g d (degree_classes d)

let edge_count g =
  need_two "edge_count" g;
  count_pairs (Graph.n g) (degree_classes (weighted_degrees g))

(* [build] drops a pair weight [mass·d_u·d_v/z] that underflows to zero,
   overflows to ∞ or is not a number, which happens only for degrees near
   the ends of the float range: the stand-in is whole iff no pair was
   dropped. *)
let sparse_below ~limit g =
  need_two "sparse_below" g;
  let d = weighted_degrees g in
  let classes = degree_classes d in
  let count = count_pairs (Graph.n g) classes in
  if count >= limit then None
  else begin
    let h = build g d classes in
    if Graph.m h = count then Some h else None
  end
