type finding = { file : string; line : int; rule : Rule.id; message : string }

let compare_findings a b =
  compare (a.file, a.line, Rule.to_string a.rule) (b.file, b.line, Rule.to_string b.rule)

(* ------------------------------------------------- path classification *)

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

let under dir path =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  List.mem ("lib", dir) (pairs (segments path))

let charged_layers =
  [ "sparsify"; "laplacian"; "flow"; "euler"; "rounding"; "expander" ]

let is_charged path = List.exists (fun d -> under d path) charged_layers

(* The directories allowed to touch transports directly: the kernels
   themselves, the runtime that meters them, and the harness trees —
   tests and benchmarks exercise Sim/Congest primitives on purpose, and
   became lintable when the CI gate widened to [lib bin bench test]. *)
let harness path =
  match segments path with
  | ("test" | "bench") :: _ -> true
  | _ -> false

let transport_privileged path =
  under "runtime" path || under "clique" path || harness path

(* The only code allowed to issue raw socket syscalls: the wire layer
   itself and the socket transport built directly on it. Everything else
   must go through Wire.Link so framing, checksums and the byte counters
   cannot be bypassed. *)
let wire_privileged path =
  under "wire" path
  || (under "clique" path && Filename.basename path = "socket.ml")

(* The only lib code allowed to name Shard_down: the supervisor that
   raises and recovers from it (the socket coordinator and the fault
   drivers) and its definition site. Charged layers must let it propagate
   (L13) — recovery without re-certification is not recovery. Harness
   trees (test/, bench/, bin/) assert on it freely. *)
let supervisor_privileged path =
  under "fault" path
  || (under "clique" path
     && List.mem (Filename.basename path) [ "socket.ml"; "socket.mli" ])
  || (under "runtime" path
     && List.mem (Filename.basename path) [ "shard.ml"; "shard.mli" ])

let is_lib_module path =
  match segments path with "lib" :: _ :: _ -> true | _ -> false

(* ------------------------------------------------------- token matching *)

let boundary_before line i = i = 0 || not (Scan.is_ident_char line.[i - 1])

let boundary_after line j =
  j >= String.length line || not (Scan.is_ident_char line.[j])

(* All start positions of [tok] in [line] at identifier boundaries. A token
   ending in a non-identifier character (the trailing dot of [Random.]) needs
   no right boundary: whatever follows the dot cannot extend the token. *)
let token_positions line tok =
  let tl = String.length tok and ll = String.length line in
  let needs_right = tl > 0 && Scan.is_ident_char tok.[tl - 1] in
  let rec loop i acc =
    if i + tl > ll then List.rev acc
    else if
      String.sub line i tl = tok
      && boundary_before line i
      && ((not needs_right) || boundary_after line (i + tl))
    then loop (i + 1) (i :: acc)
    else loop (i + 1) acc
  in
  loop 0 []

let mentions line tok = token_positions line tok <> []

(* [with] +spaces+ [_] +spaces+ [->] — the lexical shape of a catch-all
   handler. A [match] earlier on the line means the [_] is an ordinary
   wildcard pattern, not an exception catch-all. *)
let catch_all line =
  match token_positions line "with" with
  | [] -> false
  | positions ->
    let matches = token_positions line "match" in
    List.exists
      (fun i ->
        (not (List.exists (fun m -> m < i) matches))
        &&
        let len = String.length line in
        let j = ref (i + 4) in
        while !j < len && line.[!j] = ' ' do
          incr j
        done;
        if !j < len && line.[!j] = '_' && boundary_after line (!j + 1) then begin
          incr j;
          while !j < len && line.[!j] = ' ' do
            incr j
          done;
          !j + 1 < len && line.[!j] = '-' && line.[!j + 1] = '>'
        end
        else false)
      positions

(* ----------------------------------------------------------- the rules *)

let transport_ops = [ "exchange"; "route"; "broadcast" ]

let transport_tokens =
  List.concat_map
    (fun m -> List.map (fun op -> m ^ "." ^ op) transport_ops)
    [ "Sim"; "Congest" ]

let entropy_tokens = [ "Random." ]

(* Recovery belongs to the driver above the algorithms: a charged layer
   that catches Fault_detected or re-runs itself through Recover.run is
   making resilience decisions the ledger can no longer attribute. *)
let recovery_tokens = [ "Fault_detected"; "Recover.run" ]

let wallclock_tokens = [ "Unix."; "Sys.time" ]

(* Per-call allocation primitives the round hot path must not reach for:
   arena-style kernels size their buffers once and reset them. *)
let alloc_tokens = [ "Hashtbl.create"; "Array.make"; "Bytes.create" ]

(* Raw socket syscalls (L9). [Unix.select] is deliberately absent: waiting
   on descriptors does not move bytes, and drivers may multiplex. *)
let socket_tokens =
  [
    "Unix.socket";
    "Unix.socketpair";
    "Unix.connect";
    "Unix.accept";
    "Unix.bind";
    "Unix.listen";
    "Unix.read";
    "Unix.write";
    "Unix.single_write";
  ]

(* The top-level binding a column-0 [let] / [let rec] / [and] line opens,
   if any — the lexical "current function" tracker rule L8 scopes hot
   regions with. Nested (indented) bindings stay inside the enclosing
   function on purpose: a hot function's local helpers are hot too. *)
let toplevel_binding code_line =
  let len = String.length code_line in
  let after_kw kw =
    let kl = String.length kw in
    if len > kl && String.sub code_line 0 kl = kw && code_line.[kl] = ' ' then
      Some (kl + 1)
    else None
  in
  let start =
    match after_kw "let rec" with
    | Some i -> Some i
    | None -> (
      match after_kw "let" with Some i -> Some i | None -> after_kw "and")
  in
  match start with
  | None -> None
  | Some i ->
    let i = ref i in
    while !i < len && code_line.[!i] = ' ' do
      incr i
    done;
    let j = ref !i in
    while !j < len && Scan.is_ident_char code_line.[!j] do
      incr j
    done;
    if !j > !i then Some (String.sub code_line !i (!j - !i)) else None

let line_findings ~file ~charged ~privileged ~wire_ok ~supervisor_ok ~hot
    lineno code_line =
  let found = ref [] in
  let add rule message = found := (rule, message) :: !found in
  if charged then begin
    List.iter
      (fun tok ->
        if mentions code_line tok then
          add Rule.L1
            (Printf.sprintf
               "'%s' in charged layer: the seeded Graph.Prng is the only \
                sanctioned entropy"
               tok))
      entropy_tokens;
    List.iter
      (fun tok ->
        if mentions code_line tok then
          add Rule.L2
            (Printf.sprintf
               "'%s' in charged layer: rounds, not wall-clock, are the cost \
                measure"
               tok))
      wallclock_tokens;
    List.iter
      (fun tok ->
        if mentions code_line tok then
          add Rule.L7
            (Printf.sprintf
               "'%s' in charged layer: recovery decisions belong to the \
                driver (Fault.Recover), not the algorithms"
               tok))
      recovery_tokens
  end;
  if not privileged then
    List.iter
      (fun tok ->
        if mentions code_line tok then
          add Rule.L3
            (Printf.sprintf
               "direct transport call '%s' bypasses the Runtime ledger" tok))
      transport_tokens;
  if not wire_ok then
    List.iter
      (fun tok ->
        if mentions code_line tok then
          add Rule.L9
            (Printf.sprintf
               "raw socket call '%s' outside the wire layer: use Wire.Link so \
                framing and byte accounting apply"
               tok))
      socket_tokens;
  if hot then
    List.iter
      (fun tok ->
        if mentions code_line tok then
          add Rule.L8
            (Printf.sprintf
               "'%s' in hot-path function: the round hot path reuses \
                preallocated buffers (see Runtime.Arena)"
               tok))
      alloc_tokens;
  if not supervisor_ok then
    if mentions code_line "Shard_down" then
      add Rule.L13
        "Shard_down outside the supervisor layer: let it propagate — only \
         lib/clique/socket.ml and lib/fault/ may handle a dead worker";
  if mentions code_line "Obj.magic" then
    add Rule.L4 "Obj.magic is forbidden";
  if catch_all code_line then
    add Rule.L5
      "catch-all handler 'with _ ->' can swallow model violations; match \
       specific exceptions";
  List.rev_map
    (fun (rule, message) -> { file; line = lineno; rule; message })
    !found

let scan_source ~file src =
  let charged = is_charged file in
  let privileged = transport_privileged file in
  let wire_ok = wire_privileged file in
  let supervisor_ok = (not (is_lib_module file)) || supervisor_privileged file in
  (* [strip] preserves newlines, so raw and code line arrays are parallel. *)
  let raw = Array.of_list (Scan.lines src) in
  let code = Array.of_list (Scan.lines (Scan.strip src)) in
  (* Hot markers live in comments, so they are read off the raw lines;
     the set is per-file and applies to the whole file regardless of where
     the marker sits. *)
  let hot_set = Hashtbl.create 4 in
  Array.iter
    (fun raw_line ->
      List.iter (fun nm -> Hashtbl.replace hot_set nm ()) (Rule.hot_names raw_line))
    raw;
  let current = ref "" in
  let findings = ref [] in
  Array.iteri
    (fun idx code_line ->
      (match toplevel_binding code_line with
      | Some nm -> current := nm
      | None -> ());
      let hot = Hashtbl.mem hot_set !current in
      line_findings ~file ~charged ~privileged ~wire_ok ~supervisor_ok ~hot
        (idx + 1) code_line
      |> List.iter (fun f ->
             if not (Rule.suppressed f.rule raw.(idx)) then
               findings := f :: !findings))
    code;
  List.sort compare_findings !findings

let scan_file file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  scan_source ~file src

(* ------------------------------------------------------------------ L6 *)

let missing_mlis paths =
  let set = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace set p ()) paths;
  List.filter_map
    (fun p ->
      if
        Filename.check_suffix p ".ml"
        && is_lib_module p
        && not (Hashtbl.mem set (p ^ "i"))
      then
        Some
          {
            file = p;
            line = 1;
            rule = Rule.L6;
            message = "lib module has no interface; add a sibling .mli";
          }
      else None)
    paths
  |> List.sort compare_findings

let lint_paths roots =
  let files = Walk.collect roots in
  let per_file = List.concat_map scan_file files in
  List.sort compare_findings (per_file @ missing_mlis files)
