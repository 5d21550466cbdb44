type id = L1 | L2 | L3 | L4 | L5 | L6 | L7 | L8 | L9 | L10 | L11 | L12 | L13

let all = [ L1; L2; L3; L4; L5; L6; L7; L8; L9; L10; L11; L12; L13 ]

let to_string = function
  | L1 -> "L1"
  | L2 -> "L2"
  | L3 -> "L3"
  | L4 -> "L4"
  | L5 -> "L5"
  | L6 -> "L6"
  | L7 -> "L7"
  | L8 -> "L8"
  | L9 -> "L9"
  | L10 -> "L10"
  | L11 -> "L11"
  | L12 -> "L12"
  | L13 -> "L13"

let of_string = function
  | "L1" -> Some L1
  | "L2" -> Some L2
  | "L3" -> Some L3
  | "L4" -> Some L4
  | "L5" -> Some L5
  | "L6" -> Some L6
  | "L7" -> Some L7
  | "L8" -> Some L8
  | "L9" -> Some L9
  | "L10" -> Some L10
  | "L11" -> Some L11
  | "L12" -> Some L12
  | "L13" -> Some L13
  | _ -> None

(* The semantic (AST/call-graph) rules, shipped by the --semantic pass. *)
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
  | L8 ->
    "allocation in a hot-path function (Hashtbl.create, Array.make or \
     Bytes.create inside a function named by a (* cc_lint: hot ... *) \
     marker): the round hot path preallocates and reuses"
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
    "[semantic] allocation inside a (* cc_lint: hot ... *) function, \
     AST-accurate: unlike L8's lexical tracker it sees nested let \
     bindings, so hot closures defined inside factories are covered"
  | L13 ->
    "Shard_down handled outside the supervisor layer: only the socket \
     coordinator (lib/clique/socket.ml), the fault drivers (lib/fault/), \
     and the definition site may name the exception — a charged layer \
     that catches it papers over a dead worker without certification"

let allow_marker = "cc_lint: allow"

let hot_marker = "cc_lint: hot"

(* The function names a [(* cc_lint: hot deliver exchange *)]-style marker
   on this raw line declares hot, in order; [] when the line carries no
   marker. The marker is per-file: [Lint.scan_source] unions every line's
   names before walking the code. *)
let hot_names raw_line =
  let len = String.length raw_line in
  let mlen = String.length hot_marker in
  let rec find i =
    if i + mlen > len then []
    else if String.sub raw_line i mlen = hot_marker then names (i + mlen) []
    else find (i + 1)
  and names i acc =
    if i >= len then List.rev acc
    else if raw_line.[i] = ' ' || raw_line.[i] = ',' then names (i + 1) acc
    else if raw_line.[i] = '*' then List.rev acc
    else begin
      let j = ref i in
      while
        !j < len
        && raw_line.[!j] <> ' '
        && raw_line.[!j] <> ','
        && raw_line.[!j] <> '*'
      do
        incr j
      done;
      names !j (String.sub raw_line i (!j - i) :: acc)
    end
  in
  find 0

(* A raw source line suppresses [id] iff it carries a
   [(* cc_lint: allow L2 L5 *)]-style marker naming that id. Id tokens
   match case-insensitively, so [(* cc_lint: allow l9 *)] works too. *)
let suppressed id raw_line =
  let name = String.lowercase_ascii (to_string id) in
  let len = String.length raw_line in
  let mlen = String.length allow_marker in
  let rec find i =
    if i + mlen > len then false
    else if String.sub raw_line i mlen = allow_marker then ids (i + mlen)
    else find (i + 1)
  and ids i =
    (* Scan the id list following the marker: uppercase-L tokens until the
       comment closes or the line ends. *)
    let rec loop i =
      if i >= len then false
      else if raw_line.[i] = ' ' || raw_line.[i] = ',' then loop (i + 1)
      else if i + 1 < len && raw_line.[i] = '*' && raw_line.[i + 1] = ')' then
        false
      else begin
        let j = ref i in
        while
          !j < len
          && raw_line.[!j] <> ' '
          && raw_line.[!j] <> ','
          && raw_line.[!j] <> '*'
        do
          incr j
        done;
        if String.lowercase_ascii (String.sub raw_line i (!j - i)) = name then
          true
        else loop !j
      end
    in
    loop i
  in
  find 0
