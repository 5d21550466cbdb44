(** Rule L12: hot-path allocation checking on the parse tree.

    The hot set is read off the file's [(* cc_lint: hot name ... *)]
    markers, and functions are located in the parse tree, so a hot
    function bound by a nested [let] (e.g. a closure built inside a
    factory) is covered too. Allocation primitives: [Hashtbl.create],
    [Array.make], [Bytes.create]. *)

val findings : Ast.impl -> Lint.finding list
(** Every L12 finding of one implementation, unsorted; a site inside two
    nested hot bindings appears twice. {!Semantic} applies the allow
    markers and keeps one finding per line. *)
