(** The model-hygiene rule catalog.

    Every reproduced claim (Theorems 1.1-1.4, Theorem 3.3) is deterministic
    and priced in congested-clique rounds with O(log n)-bit messages; each
    rule names one way a source file can silently step outside that model.
    Rules are identified as [L1]..[Ln] (the catalog range is whatever
    {!all} holds — never hardcode it) and can be suppressed per line with a
    [(* cc_lint: allow L2 *)] comment (ids match case-insensitively).
    Every rule runs on the compiler's parse tree: [L1]-[L5], [L7], [L9],
    [L13] and [L14] one identifier or handler case at a time ({!Lint}), [L6]
    over the file list, and the {!semantic} subset over the call graph and
    the hot markers ({!Semantic}). There is no [L8]: its line-based
    hot-path tracker was retired for [L12], which checks the same
    primitives on the parse tree, and ids are never reused, so existing
    markers keep their meaning. *)

type id =
  | L1 | L2 | L3 | L4 | L5 | L6 | L7 | L9 | L10 | L11 | L12 | L13 | L14
(** The rule catalog; see {!synopsis} for what each enforces. *)

val all : id list
(** In ascending order. *)

val semantic : id list
(** The rules that look past one identifier: [L10] (transitive model
    purity), [L11] (domain-race detector), [L12] (hot-path allocation). *)

val to_string : id -> string
(** ["L1"] .. ["L13"] — the id as it appears in findings and markers. *)

val of_string : string -> id option
(** Inverse of {!to_string}, case-insensitive; [None] on unknown ids. *)

val synopsis : id -> string
(** One-line description, used by [cc_lint --rules] and in messages. *)

val suppressed : id -> string -> bool
(** [suppressed id raw_line] is [true] iff the raw (uncommented-out) line
    carries a suppression marker naming [id]. The id tokens after the
    marker are matched case-insensitively ([l9] suppresses [L9]). *)

val hot_names : string -> string list
(** [hot_names raw_line] is the list of function names the line's hot
    marker declares, or [[]] when it carries none. A comment
    [(* cc_lint: hot deliver *)] anywhere in a file declares the named
    functions hot: rule [L12] then flags per-call allocation
    ([Hashtbl.create], [Array.make], [Bytes.create]) inside them, found in
    the parse tree — hot functions bound by nested [let]s included. *)
