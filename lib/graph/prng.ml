(* The state lives in an 8-byte [Bytes] rather than a [mutable int64]
   field: updating a boxed field allocates a fresh Int64 box per draw,
   while [Bytes.set_int64_le] writes in place, so a [float] draw
   allocates only its result. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let golden = 0x9E3779B97F4A7C15L

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits so the value is non-negative as a native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (v /. 9007199254740992.)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
