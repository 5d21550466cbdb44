type id =
  | L1 | L2 | L3 | L4 | L5 | L6 | L7 | L9 | L10 | L11 | L12 | L13 | L14

let all = [ L1; L2; L3; L4; L5; L6; L7; L9; L10; L11; L12; L13; L14 ]

let to_string = function
  | L1 -> "L1"
  | L2 -> "L2"
  | L3 -> "L3"
  | L4 -> "L4"
  | L5 -> "L5"
  | L6 -> "L6"
  | L7 -> "L7"
  | L9 -> "L9"
  | L10 -> "L10"
  | L11 -> "L11"
  | L12 -> "L12"
  | L13 -> "L13"
  | L14 -> "L14"

let of_string = function
  | "L1" -> Some L1
  | "L2" -> Some L2
  | "L3" -> Some L3
  | "L4" -> Some L4
  | "L5" -> Some L5
  | "L6" -> Some L6
  | "L7" -> Some L7
  | "L9" -> Some L9
  | "L10" -> Some L10
  | "L11" -> Some L11
  | "L12" -> Some L12
  | "L13" -> Some L13
  | "L14" -> Some L14
  | _ -> None

(* The rules that look past one identifier: call graph and hot markers. *)
let semantic = [ L10; L11; L12 ]

let synopsis = function
  | L1 ->
    "unsanctioned entropy in a charged layer (Random.*; use the seeded \
     Graph.Prng)"
  | L2 ->
    "wall-clock or OS state in a charged layer (Unix.*, Sys.time): rounds \
     are the only cost measure"
  | L3 ->
    "transport call bypassing the Runtime ledger (Sim./Congest. \
     exchange/route/broadcast outside lib/runtime and lib/clique)"
  | L4 -> "Obj.magic defeats the type discipline the round accounting rests on"
  | L5 ->
    "catch-all exception handler (try ... with _ ->) can swallow \
     Bandwidth_exceeded and sanitizer violations"
  | L6 -> "lib module without an .mli interface"
  | L7 ->
    "recovery logic inside a charged layer (catching Fault_detected or \
     calling Recover.run): verify-and-retry belongs to the driver"
  | L9 ->
    "raw socket I/O outside the wire layer (Unix.socket, connect, accept, \
     read, write, ...): all inter-process bytes go through Wire.Link so \
     framing, checksums and byte accounting cannot be bypassed"
  | L10 ->
    "[semantic] impure primitive (Random.*, Unix.time/gettimeofday, \
     Sys.time, Domain.*, raw sockets) reachable through the call graph \
     from a charged-layer function; the finding prints the offending call \
     chain hop by hop"
  | L11 ->
    "[semantic] top-level mutable state (ref cells, global Hashtbl/Array \
     values, mutable record fields) written from the domain-fanned region \
     without Atomic/Mutex discipline: a data race across Pool workers"
  | L12 ->
    "[semantic] allocation (Hashtbl.create, Array.make or Bytes.create) \
     inside a function named by a (* cc_lint: hot ... *) marker, nested \
     let bindings included: the round hot path preallocates and reuses"
  | L13 ->
    "Shard_down handled outside the supervisor layer: only the socket \
     coordinator (lib/clique/socket.ml), the fault drivers (lib/fault/), \
     and the definition site may name the exception — a charged layer \
     that catches it papers over a dead worker without certification"
  | L14 ->
    "unchecked array access (Array.unsafe_get, Array.unsafe_set) outside \
     lib/linalg, the one layer whose abstract types fix every length its \
     unchecked loops rely on"

let allow_marker = "cc_lint: allow"

let hot_marker = "cc_lint: hot"

(* The space- or comma-separated words after [marker] on [raw_line], up
   to the first '*' (where the comment closes); [] when the line carries
   no marker. *)
let marker_words marker raw_line =
  let len = String.length raw_line in
  let mlen = String.length marker in
  let stop c = c = ' ' || c = ',' || c = '*' in
  let rec find i =
    if i + mlen > len then []
    else if String.sub raw_line i mlen = marker then words (i + mlen) []
    else find (i + 1)
  and words i acc =
    if i >= len || raw_line.[i] = '*' then List.rev acc
    else if stop raw_line.[i] then words (i + 1) acc
    else begin
      let j = ref i in
      while !j < len && not (stop raw_line.[!j]) do
        incr j
      done;
      words !j (String.sub raw_line i (!j - i) :: acc)
    end
  in
  find 0

(* The function names a [(* cc_lint: hot deliver exchange *)]-style marker
   on this raw line declares hot, in order. The marker is per-file:
   [Hotpath.findings] unions every line's names before walking the
   code. *)
let hot_names raw_line = marker_words hot_marker raw_line

(* A raw source line suppresses [id] iff it carries a
   [(* cc_lint: allow L2 L5 *)]-style marker naming that id. Id tokens
   match case-insensitively, so [(* cc_lint: allow l9 *)] works too. *)
let suppressed id raw_line =
  let name = String.lowercase_ascii (to_string id) in
  List.exists
    (fun w -> String.lowercase_ascii w = name)
    (marker_words allow_marker raw_line)
