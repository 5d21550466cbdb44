(* cc_lint — model-compliance linter for the congested-clique reproduction.

   Usage: cc_lint [--rules] [--graph] [--json] [PATH ...]
                                                      (default paths: lib bin)

   Every run applies the whole catalog in one pass (Analysis.Semantic):
   each file is read and parsed once with the compiler frontend; the tree
   goes through the per-file rules (L1-L5, L7, L9, L13, L14, Analysis.Lint),
   the implementations make the module-qualified call graph for the
   interprocedural rules L10-L12, and L6 checks the file list.
   --graph dumps the call graph as GraphViz DOT to stdout and exits.
   --json renders findings through the dependency-free Metrics.Json
   instead of line-per-finding text.

   Exit codes: 0 clean, 1 findings (or parse errors), 2 usage. *)

let usage () =
  prerr_endline
    "usage: cc_lint [--rules] [--graph] [--json] [PATH ...]   (default: lib \
     bin)";
  exit 2

type opts = { graph : bool; json : bool; roots : string list }

let parse_args args =
  let rec go opts = function
    | [] -> opts
    | "--graph" :: rest -> go { opts with graph = true } rest
    | "--json" :: rest -> go { opts with json = true } rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | path :: rest -> go { opts with roots = opts.roots @ [ path ] } rest
  in
  let opts = go { graph = false; json = false; roots = [] } args in
  if opts.roots = [] then { opts with roots = [ "lib"; "bin" ] } else opts

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--help" args || List.mem "-h" args then usage ();
  if List.mem "--rules" args then begin
    print_endline (Analysis.Report.rules_table ());
    exit 0
  end;
  let opts = parse_args args in
  match Analysis.Semantic.analyze_paths opts.roots with
  | { findings; errors; graph } ->
    if opts.graph then begin
      print_string (Analysis.Callgraph.to_dot graph);
      exit 0
    end;
    List.iter (fun e -> prerr_endline ("cc_lint: parse error: " ^ e)) errors;
    if opts.json then
      Analysis.Report.print_json stdout ~errors findings
    else Analysis.Report.print stdout findings;
    prerr_endline (Analysis.Report.summary findings);
    exit (if findings = [] && errors = [] then 0 else 1)
  | exception Invalid_argument msg ->
    prerr_endline ("cc_lint: " ^ msg);
    exit 2
