(* Parsing through the compiler's own frontend (compiler-libs.common).
   The linter runs on the developer's machine and in CI, never inside a
   charged layer, so allocating freely here is in-model. *)

type impl = {
  file : string;
  src : string;
  structure : Parsetree.structure;
}

let line_of_loc (loc : Location.t) = loc.loc_start.pos_lnum

let describe_error ~file = function
  | Syntaxerr.Error err ->
    let loc = Syntaxerr.location_of_error err in
    Printf.sprintf "%s:%d syntax error" file (line_of_loc loc)
  | Lexer.Error (_, loc) ->
    Printf.sprintf "%s:%d lexer error" file (line_of_loc loc)
  | e -> Printf.sprintf "%s:1 parse failure: %s" file (Printexc.to_string e)

let with_lexbuf ~file src parse =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  (* The compiler's error reporter must not print to stderr on its own;
     parse exceptions are caught and rendered as one-line strings. *)
  match parse lexbuf with
  | v -> Ok v
  | exception (Syntaxerr.Error _ as e) -> Error (describe_error ~file e)
  | exception (Lexer.Error _ as e) -> Error (describe_error ~file e)

let parse_impl ~file src =
  match with_lexbuf ~file src Parse.implementation with
  | Ok structure -> Ok { file; src; structure }
  | Error e -> Error e

let parse_interface ~file src = with_lexbuf ~file src Parse.interface

(* [Longident.flatten] fails on a functor application, which a type path
   may hold ([Set.Make(Int).t]). *)
let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Ldot (l, s) -> flatten l @ [ s ]
  | Lapply (f, x) -> flatten f @ flatten x

let raw_lines src = Array.of_list (String.split_on_char '\n' src)

(* Depth-first expression traversal via Ast_iterator: the default iterator
   already recurses through every syntactic category (match arms, local
   modules, classes), so overriding [expr] alone visits each
   sub-expression exactly once. *)
let iter_expressions f expr =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr

let iter_bindings f structure =
  let visit_vb it (vb : Parsetree.value_binding) =
    (match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; loc } -> f ~name:txt ~line:(line_of_loc loc) vb.pvb_expr
    | _ -> ());
    Ast_iterator.default_iterator.value_binding it vb
  in
  let it =
    { Ast_iterator.default_iterator with value_binding = visit_vb }
  in
  it.structure it structure
