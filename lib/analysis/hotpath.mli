(** Rule L12: hot-path allocation checking on the parse tree.

    The hot set is read off the file's [(* cc_lint: hot name ... *)]
    markers, and functions are located in the parse tree, so a hot
    function bound by a nested [let] (e.g. a closure built inside a
    factory) is covered too. Allocation primitives: [Hashtbl.create],
    [Array.make], [Bytes.create]. Findings suppressed by an allow marker
    naming [L12] on the offending line are dropped. *)

val findings : Ast.impl -> Lint.finding list
(** All unsuppressed L12 findings of one implementation, sorted. *)
