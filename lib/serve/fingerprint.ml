(* Structural FNV-1a fingerprints for cache keys. The folds reuse
   Wire.Fnv (the transcript/checksum hash) so a fingerprint is stable
   across processes and runs — the property the daemon's cache keying and
   the cache-hit-identity tests rest on. *)

let graph g =
  let fp = ref (Wire.Fnv.add_int Wire.Fnv.offset (Graph.n g)) in
  fp := Wire.Fnv.add_int !fp (Graph.m g);
  Array.iter
    (fun (e : Graph.edge) ->
      fp := Wire.Fnv.add_int !fp e.u;
      fp := Wire.Fnv.add_int !fp e.v;
      fp := Wire.Fnv.add_int !fp (Int64.to_int (Int64.bits_of_float e.w)))
    (Graph.edges g);
  !fp

let digraph d =
  let fp = ref (Wire.Fnv.add_int Wire.Fnv.offset (Digraph.n d)) in
  fp := Wire.Fnv.add_int !fp (Digraph.m d);
  Array.iter
    (fun (a : Digraph.arc) ->
      fp := Wire.Fnv.add_int !fp a.src;
      fp := Wire.Fnv.add_int !fp a.dst;
      fp := Wire.Fnv.add_int !fp a.cap;
      fp := Wire.Fnv.add_int !fp a.cost)
    (Digraph.arcs d);
  !fp

let vec fp (v : Linalg.Vec.t) =
  let fp = ref (Wire.Fnv.add_int fp (Array.length v)) in
  Array.iter
    (fun x ->
      fp := Wire.Fnv.add_int !fp (Int64.to_int (Int64.bits_of_float x)))
    v;
  !fp

let float fp x = Wire.Fnv.add_int fp (Int64.to_int (Int64.bits_of_float x))

let to_hex fp = Printf.sprintf "%016Lx" fp
