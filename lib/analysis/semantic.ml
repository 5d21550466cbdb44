(* Rules L10-L12 over the call graph, and the driver that runs the whole
   catalog over one parse of each file (DESIGN.md §7.1, §12). *)

type result = {
  findings : Lint.finding list;
  errors : string list;
  graph : Callgraph.t;
}

(* L10 traversal boundary: the metered and driver layers use Domain, Unix
   and wall-clock by design and under their own rules (L9, sanitizer);
   reaching *into* them from a charged layer is the sanctioned path, so
   the walk stops at their doorstep. *)
let traversal_stops file =
  Lint.transport_privileged file
  || Lint.wire_privileged file
  || Lint.under "fault" file

(* ------------------------------------------------------------- suppression *)

let raw_line_of lines_by_file file line =
  match Hashtbl.find_opt lines_by_file file with
  | None -> ""
  | Some (raw : string array) ->
    if line >= 1 && line <= Array.length raw then raw.(line - 1) else ""

let keep_unsuppressed lines_by_file findings =
  List.filter
    (fun (f : Lint.finding) ->
      not (Rule.suppressed f.rule (raw_line_of lines_by_file f.file f.line)))
    findings

(* ------------------------------------------------------------------- L10 *)

(* Impure primitives, matched against alias-expanded unresolved references.
   The module segment is matched at the tail of the path so [Stdlib.Random]
   and [Random] both count; [Prng] (the seeded generator) resolves to a
   known node and never reaches this predicate. *)
let is_impure_sink lid =
  match List.rev lid with
  | name :: m :: _ -> (
    match m with
    | "Random" | "Domain" -> true
    | "Unix" ->
      name = "time" || name = "gettimeofday"
      || List.mem name Lint.socket_calls
    | "Sys" -> name = "time"
    | _ -> false)
  | _ -> false

let l10_findings graph =
  let reach =
    Dataflow.sinks_reachable graph ~is_sink:is_impure_sink
      ~descend:(fun (n : Callgraph.node) -> not (traversal_stops n.file))
  in
  List.filter_map
    (fun (n : Callgraph.node) ->
      if not (Lint.is_charged n.file) then None
      else
        match reach n with
        | None -> None
        | Some { Dataflow.hops; sink; line } ->
          let chain =
            String.concat " -> "
              (List.map (fun (h : Callgraph.node) -> h.id) hops @ [ sink ])
          in
          Some
            {
              Lint.file = n.file;
              line;
              rule = Rule.L10;
              message =
                Printf.sprintf
                  "impure primitive '%s' reachable from charged function \
                   '%s': %s"
                  sink n.id chain;
            })
    (Callgraph.nodes graph)

(* ------------------------------------------------------------------- L11 *)

(* A structure-level binding whose bound expression is mutable storage.
   Type information is out of reach, so this is the syntactic set: [ref]
   applications, mutable-container creators, and array literals. [Atomic.t]
   values are deliberately absent — Atomic is the sanctioned fix. *)
let mutable_heads =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "create_float" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Buffer"; "create" ];
  ]

let rec expr_head (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> expr_head e
  | _ -> e

let mutable_global graph (n : Callgraph.node) =
  match (expr_head (Callgraph.body graph n)).pexp_desc with
  | Pexp_array _ -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    let lid = Ast.flatten txt in
    List.exists
      (fun head ->
        let l = List.length head and k = List.length lid in
        k >= l && List.filteri (fun i _ -> i >= k - l) lid = head)
      mutable_heads
  | _ -> false

let suffix2 a b lid =
  match List.rev lid with
  | x :: y :: _ -> x = b && y = a
  | _ -> false

(* Files that orchestrate domain parallelism: any reference to [Domain.*]
   or to [Pool.run]/[Pool.get]. All their functions run (or publish work)
   concurrently with pool workers, so the whole file joins the region. *)
let domain_adjacent graph file =
  List.exists
    (fun n ->
      List.exists
        (fun (lid, _) ->
          (match List.rev lid with _ :: "Domain" :: _ -> true | _ -> false)
          || suffix2 "Pool" "run" lid
          || suffix2 "Pool" "get" lid)
        (Callgraph.refs graph n))
    (Callgraph.defs_in_file graph file)

(* Nodes referenced from the closure arguments of [Pool.run]/[Domain.spawn]
   call sites: the fan-out entry points. *)
let fanned_roots graph =
  let roots = ref [] in
  List.iter
    (fun (n : Callgraph.node) ->
      Ast.iter_expressions
        (fun e ->
          match e.Parsetree.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
            when suffix2 "Pool" "run" (Ast.flatten txt)
                 || suffix2 "Domain" "spawn" (Ast.flatten txt) ->
            List.iter
              (fun (_, (arg : Parsetree.expression)) ->
                Ast.iter_expressions
                  (fun a ->
                    match a.Parsetree.pexp_desc with
                    | Pexp_ident { txt; _ } ->
                      roots :=
                        Callgraph.resolve graph ~from:n (Ast.flatten txt)
                        @ !roots
                    | _ -> ())
                  arg)
              args
          | _ -> ())
        (Callgraph.body graph n))
    (Callgraph.nodes graph);
  !roots

let lock_disciplined graph n =
  List.exists
    (fun (lid, _) ->
      suffix2 "Mutex" "lock" lid || suffix2 "Mutex" "protect" lid)
    (Callgraph.refs graph n)

(* Mutating operations whose first (unlabeled) argument names the storage. *)
let mutating_ops =
  [
    ([ "Hashtbl" ], [ "add"; "replace"; "remove"; "reset"; "clear";
                      "filter_map_inplace" ]);
    ([ "Array" ], [ "set"; "fill"; "blit"; "unsafe_set" ]);
    ([ "Bytes" ], [ "set"; "fill"; "blit"; "unsafe_set" ]);
    ([ "Queue" ], [ "push"; "add"; "pop"; "take"; "clear"; "transfer" ]);
    ([ "Stack" ], [ "push"; "pop"; "clear" ]);
    ([ "Buffer" ], [ "add_string"; "add_char"; "add_bytes"; "clear"; "reset" ]);
  ]

let write_targets body =
  let acc = ref [] in
  let first_ident args =
    List.find_map
      (fun ((label : Asttypes.arg_label), (a : Parsetree.expression)) ->
        match (label, a.pexp_desc) with
        | Asttypes.Nolabel, Pexp_ident { txt; _ } -> Some (Ast.flatten txt)
        | _ -> None)
      args
  in
  Ast.iter_expressions
    (fun e ->
      match e.Parsetree.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        let line = Ast.line_of_loc e.pexp_loc in
        match List.rev (Ast.flatten txt) with
        | (":=" | "incr" | "decr") :: ([] | [ "Stdlib" ]) -> (
          match first_ident args with
          | Some target -> acc := (target, "':='", line) :: !acc
          | None -> ())
        | op :: m :: _
          when List.exists
                 (fun (ms, ops) -> ms = [ m ] && List.mem op ops)
                 mutating_ops -> (
          match first_ident args with
          | Some target ->
            acc := (target, Printf.sprintf "'%s.%s'" m op, line) :: !acc
          | None -> ())
        | _ -> ())
      | Pexp_setfield
          ({ pexp_desc = Pexp_ident { txt; _ }; _ }, { txt = fld; _ }, _) ->
        acc :=
          ( Ast.flatten txt,
            Printf.sprintf "mutable field '%s' assignment"
              (String.concat "." (Ast.flatten fld)),
            Ast.line_of_loc e.pexp_loc )
          :: !acc
      | _ -> ())
    body;
  List.rev !acc

let l11_findings graph =
  let all = Callgraph.nodes graph in
  let adjacency = Hashtbl.create 16 in
  let file_adjacent file =
    match Hashtbl.find_opt adjacency file with
    | Some b -> b
    | None ->
      let b = domain_adjacent graph file in
      Hashtbl.replace adjacency file b;
      b
  in
  let region_roots =
    fanned_roots graph
    @ List.filter (fun (n : Callgraph.node) -> file_adjacent n.file) all
  in
  let in_region = Dataflow.reachable_from graph ~roots:region_roots in
  let globals = Hashtbl.create 32 in
  List.iter
    (fun (n : Callgraph.node) ->
      if mutable_global graph n then Hashtbl.replace globals n.id n)
    all;
  List.concat_map
    (fun (n : Callgraph.node) ->
      if
        (not (Lint.is_lib_module n.file))
        || (not (in_region n))
        || lock_disciplined graph n
      then []
      else
        List.filter_map
          (fun (target, op, line) ->
            let defs = Callgraph.resolve graph ~from:n target in
            List.find_map
              (fun (d : Callgraph.node) ->
                match Hashtbl.find_opt globals d.id with
                | None -> None
                | Some g ->
                  Some
                    {
                      Lint.file = n.file;
                      line;
                      rule = Rule.L11;
                      message =
                        Printf.sprintf
                          "%s write to top-level mutable '%s' (%s:%d) from \
                           domain-fanned region function '%s' without \
                           Atomic/Mutex discipline"
                          op g.id g.file g.line n.id;
                    })
              defs)
          (write_targets (Callgraph.body graph n)))
    all

(* --------------------------------------------------------------- driver *)

(* Each source is parsed once; its tree feeds the per-file rules and, for
   an implementation, the call graph. [l6] is L6 over the file list. *)
let run ~l6 sources =
  let errors = ref [] and impls = ref [] and per_file = ref [] in
  let lines_by_file = Hashtbl.create 64 in
  List.iter
    (fun (file, src) ->
      Hashtbl.replace lines_by_file file (Ast.raw_lines src);
      let tree =
        if Filename.check_suffix file ".mli" then
          Result.map (fun s -> `Intf s) (Ast.parse_interface ~file src)
        else
          Result.map
            (fun (impl : Ast.impl) ->
              impls := impl :: !impls;
              `Impl impl.structure)
            (Ast.parse_impl ~file src)
      in
      match tree with
      | Ok tree ->
        per_file := List.rev_append (Lint.findings ~file tree) !per_file
      | Error e -> errors := e :: !errors)
    sources;
  let impls = List.rev !impls in
  let graph = Callgraph.build impls in
  let findings =
    l6 @ !per_file @ l10_findings graph @ l11_findings graph
    @ List.concat_map Hotpath.findings impls
  in
  {
    findings =
      keep_unsuppressed lines_by_file findings
      |> List.sort_uniq Lint.compare_findings;
    errors = List.rev !errors;
    graph;
  }

let analyze sources = run ~l6:[] sources

let analyze_paths roots =
  let files = Walk.collect roots in
  run ~l6:(Lint.missing_mlis files)
    (List.map
       (fun file -> (file, In_channel.with_open_bin file In_channel.input_all))
       files)
