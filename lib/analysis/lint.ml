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

(* The only code allowed to issue raw socket syscalls: the wire layer.
   Everything else must go through Wire.Link so framing, checksums and the
   byte counters cannot be bypassed. *)
let wire_privileged path = under "wire" path

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

(* The only code allowed unchecked array access: the dense kernels,
   whose abstract factor type fixes the array lengths their loops rely
   on (L14). *)
let unchecked_privileged path = under "linalg" path

let is_lib_module path =
  match segments path with "lib" :: _ :: _ -> true | _ -> false

(* ----------------------------------------------------------- the rules *)

(* Raw socket syscalls (L9). [Unix.select] is deliberately absent: waiting
   on descriptors does not move bytes, and drivers may multiplex. *)
let socket_calls =
  [
    "socket"; "socketpair"; "connect"; "accept"; "bind"; "listen"; "read";
    "write"; "single_write";
  ]

(* One walk over a parse tree. Every long identifier it carries goes to
   [ident] with the segments that name modules: all of them in a module
   or module-type path ([open Unix], [module R = Random]), all but the
   last in a value, constructor, field, type or class path. Every [try]
   case, and every [match] case under [exception], that catches all goes
   to [handler]. *)
let iterator ~ident ~handler =
  let open Parsetree in
  let d = Ast_iterator.default_iterator in
  let visit ~modules (l : Longident.t Asttypes.loc) =
    let path = Ast.flatten l.txt in
    let quals =
      if modules then path
      else List.filteri (fun i _ -> i < List.length path - 1) path
    in
    ident ~line:(Ast.line_of_loc l.loc) ~quals path
  in
  let member = visit ~modules:false and modpath = visit ~modules:true in
  (* A case that catches every exception: [_] with no guard. *)
  let check_case (c : case) =
    match (c.pc_lhs.ppat_desc, c.pc_guard) with
    | Ppat_any, None -> handler (Ast.line_of_loc c.pc_lhs.ppat_loc)
    | _ -> ()
  in
  {
    d with
    expr =
      (fun it e ->
        (match e.pexp_desc with
        | Pexp_ident l
        | Pexp_construct (l, _)
        | Pexp_field (_, l)
        | Pexp_setfield (_, l, _)
        | Pexp_new l ->
          member l
        | Pexp_record (fields, _) -> List.iter (fun (l, _) -> member l) fields
        | Pexp_try (_, cases) -> List.iter check_case cases
        | Pexp_match (_, cases) ->
          List.iter
            (fun c ->
              match c.pc_lhs.ppat_desc with
              | Ppat_exception p -> check_case { c with pc_lhs = p }
              | _ -> ())
            cases
        | _ -> ());
        d.expr it e);
    pat =
      (fun it p ->
        (match p.ppat_desc with
        | Ppat_construct (l, _) | Ppat_type l -> member l
        | Ppat_record (fields, _) -> List.iter (fun (l, _) -> member l) fields
        | Ppat_open (l, _) -> modpath l
        | _ -> ());
        d.pat it p);
    typ =
      (fun it t ->
        (match t.ptyp_desc with
        | Ptyp_constr (l, _) | Ptyp_class (l, _) -> member l
        | Ptyp_package (l, constraints) ->
          modpath l;
          List.iter (fun (l, _) -> member l) constraints
        | _ -> ());
        d.typ it t);
    module_expr =
      (fun it m ->
        (match m.pmod_desc with Pmod_ident l -> modpath l | _ -> ());
        d.module_expr it m);
    module_type =
      (fun it m ->
        (match m.pmty_desc with
        | Pmty_ident l | Pmty_alias l -> modpath l
        | _ -> ());
        d.module_type it m);
    open_description =
      (fun it o ->
        modpath o.popen_expr;
        d.open_description it o);
    module_substitution =
      (fun it m ->
        modpath m.pms_manifest;
        d.module_substitution it m);
    with_constraint =
      (fun it c ->
        (match c with
        | Pwith_type (l, _) | Pwith_typesubst (l, _) -> member l
        | Pwith_modtype (l, _) | Pwith_modtypesubst (l, _) -> modpath l
        | Pwith_module (a, b) | Pwith_modsubst (a, b) ->
          modpath a;
          modpath b);
        d.with_constraint it c);
    extension_constructor =
      (fun it c ->
        (match c.pext_kind with Pext_rebind l -> member l | Pext_decl _ -> ());
        d.extension_constructor it c);
    type_extension =
      (fun it t ->
        member t.ptyext_path;
        d.type_extension it t);
    class_expr =
      (fun it c ->
        (match c.pcl_desc with Pcl_constr (l, _) -> member l | _ -> ());
        d.class_expr it c);
    class_type =
      (fun it c ->
        (match c.pcty_desc with Pcty_constr (l, _) -> member l | _ -> ());
        d.class_type it c);
  }

let findings ~file tree =
  let charged = is_charged file
  and privileged = transport_privileged file
  and wire_ok = wire_privileged file
  and supervisor_ok =
    (not (is_lib_module file)) || supervisor_privileged file
  and unchecked_ok = unchecked_privileged file in
  let found = ref [] in
  let add line rule fmt =
    Printf.ksprintf
      (fun message -> found := { file; line; rule; message } :: !found)
      fmt
  in
  (* The rules one long identifier breaks: [path] is the identifier
     flattened, [quals] the segments of it that name modules. *)
  let ident ~line ~quals path =
    let name = String.concat "." path in
    let tail =
      match List.rev path with last :: m :: _ -> Some (m, last) | _ -> None
    in
    if charged then begin
      if List.mem "Random" quals then
        add line Rule.L1
          "'%s' in charged layer: the seeded Graph.Prng is the only \
           sanctioned entropy"
          name;
      if List.mem "Unix" quals || tail = Some ("Sys", "time") then
        add line Rule.L2
          "'%s' in charged layer: rounds, not wall-clock, are the cost \
           measure"
          name;
      (* Recovery belongs to the driver above the algorithms: a charged
         layer that catches Fault_detected or re-runs itself through
         Recover.run is making resilience decisions the ledger can no
         longer attribute. *)
      if List.mem "Fault_detected" path || tail = Some ("Recover", "run") then
        add line Rule.L7
          "'%s' in charged layer: recovery decisions belong to the driver \
           (Fault.Recover), not the algorithms"
          name
    end;
    (match tail with
    | Some (("Sim" | "Congest"), ("exchange" | "route" | "broadcast"))
      when not privileged ->
      add line Rule.L3 "direct transport call '%s' bypasses the Runtime ledger"
        name
    | Some ("Obj", "magic") -> add line Rule.L4 "Obj.magic is forbidden"
    | Some ("Unix", call) when (not wire_ok) && List.mem call socket_calls ->
      add line Rule.L9
        "raw socket call '%s' outside the wire layer: use Wire.Link so \
         framing and byte accounting apply"
        name
    | Some ("Array", ("unsafe_get" | "unsafe_set")) when not unchecked_ok ->
      add line Rule.L14
        "unchecked access '%s' outside lib/linalg: index with bounds checks"
        name
    | _ -> ());
    if (not supervisor_ok) && List.mem "Shard_down" path then
      add line Rule.L13
        "Shard_down outside the supervisor layer: let it propagate — only \
         lib/clique/socket.ml and lib/fault/ may handle a dead worker"
  in
  let handler line =
    add line Rule.L5
      "catch-all handler 'with _ ->' can swallow model violations; match \
       specific exceptions"
  in
  let it = iterator ~ident ~handler in
  (match tree with
  | `Impl structure -> it.structure it structure
  | `Intf signature -> it.signature it signature);
  !found

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
