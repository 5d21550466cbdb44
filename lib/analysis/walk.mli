(** Source-tree traversal for the linter. *)

val collect : string list -> string list
(** All [.ml]/[.mli] files under the given roots (a root that is itself a
    file is kept if it is a source file), sorted and deduplicated.
    [_build], [_opam], and dot-directories are skipped. Raises
    [Invalid_argument] on a nonexistent root. *)
