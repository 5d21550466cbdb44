(** Compiler-frontend parsing for the linter.

    A thin wrapper over [compiler-libs.common] (shipped with the OCaml
    distribution — no new opam dependency): sources are lexed and parsed
    with the compiler's own [Parse.implementation] / [Parse.interface], so
    every rule sees exactly the tree the compiler sees — nested bindings,
    module aliases, functor applications, and the parse-time desugarings
    ([a.(i) <- v] becomes an [Array.set] application) — and never a
    comment, string or character literal. *)

type impl = {
  file : string;  (** path the source was read from (or planted as) *)
  src : string;  (** raw source text, for marker/suppression lookup *)
  structure : Parsetree.structure;
}

val parse_impl : file:string -> string -> (impl, string) result
(** Parse an [.ml] source. [Error] carries a one-line [file:line message]
    description for lexer and syntax errors; the tree is never partially
    returned. *)

val parse_interface : file:string -> string -> (Parsetree.signature, string) result
(** Parse an [.mli] source. *)

val line_of_loc : Location.t -> int
(** 1-based start line of a compiler location. *)

val flatten : Longident.t -> string list
(** [A.B.c] becomes [["A"; "B"; "c"]]. Works for the operator idents the
    parser synthesizes too ([":="], ["Array.set"]). A functor application
    lists the functor's segments, then the argument's: [Set.Make(Int).t]
    becomes [["Set"; "Make"; "Int"; "t"]]. *)

val raw_lines : string -> string array
(** The source split on newlines, 1-based access via [raw_lines.(line-1)];
    used to honor [(* cc_lint: allow .. *)] markers and read
    [(* cc_lint: hot .. *)] markers. *)

val iter_expressions : (Parsetree.expression -> unit) -> Parsetree.expression -> unit
(** Depth-first visit of every sub-expression of an expression (including
    the expression itself), descending into nested [let]s, [fun] bodies,
    match arms, and local modules. *)

val iter_bindings :
  (name:string -> line:int -> Parsetree.expression -> unit) ->
  Parsetree.structure ->
  unit
(** Visit every [let]-bound value in the structure — at any depth: toplevel
    items, bindings nested inside other bindings' bodies, and bindings
    inside sub-modules — with its simple name (when the pattern is a plain
    variable), definition line, and bound expression. *)
