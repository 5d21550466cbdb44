type t = { mutable total : int; phases : (string, int) Hashtbl.t }

let create () = { total = 0; phases = Hashtbl.create 16 }

let charge t ~phase r =
  if r < 0 then invalid_arg "Cost.charge: negative round count";
  t.total <- t.total + r;
  let cur = try Hashtbl.find t.phases phase with Not_found -> 0 in
  Hashtbl.replace t.phases phase (cur + r)

let rounds t = t.total

let phase_rounds t phase =
  try Hashtbl.find t.phases phase with Not_found -> 0

let phases t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.phases []
  |> List.sort compare

(* The ledger phase every replayed or retried round is charged to — the
   fault layer's verify-and-retry driver and the shard supervisor's
   round replay both use it, so recovery overhead is one line item. *)
let recovery_phase = "recovery"

let lenzen_routing_rounds = 16

let broadcast_rounds = 1

let matvec_rounds = 1

let apsp_rounds n =
  int_of_float (Float.ceil (float_of_int (max n 2) ** 0.158))

let log2_ceil k =
  if k <= 1 then 0
  else begin
    let rec loop acc v = if v >= k then acc else loop (acc + 1) (v * 2) in
    loop 0 1
  end

let gather_rounds ~n ~m ~bits_per_edge =
  (* Every node must learn all m edges. A node can receive n-1 words of
     ⌈log n⌉ bits per round, so m edges of w words take ⌈m·w/(n-1)⌉ rounds
     (Lenzen routing makes this exact up to the constant). *)
  let word_bits = max 1 (log2_ceil n) in
  let words = max 1 ((bits_per_edge + word_bits - 1) / word_bits) in
  let per_round = max 1 (n - 1) in
  ((m * words) + per_round - 1) / per_round

let bcast_gather_rounds ~n ~m ~bits_per_edge =
  (* The broadcast twin: per round the air carries n broadcast words and
     every node hears all of them, so receive bandwidth — the binding
     resource of a gather — is the same as unicast up to n/(n-1). The m
     edges are spread one word per node per round: ⌈m·w/n⌉ rounds. *)
  let word_bits = max 1 (log2_ceil n) in
  let words = max 1 ((bits_per_edge + word_bits - 1) / word_bits) in
  ((m * words) + n - 1) / max 1 n
