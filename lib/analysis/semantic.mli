(** The linter's driver, and its cross-file rules L10-L12.

    Every source is read and parsed once, with the compiler's own frontend
    ({!Ast}). Each tree goes through the per-file rules of {!Lint} (L1-L5,
    L7, L9, L13, L14); the implementations also make a module-qualified call
    graph ({!Callgraph}) with interprocedural reachability ({!Dataflow}),
    for the rules that need more than one line at a time:

    - {b L10 — transitive model purity.} An impure primitive ([Random.*],
      [Unix.time]/[Unix.gettimeofday], [Sys.time], [Domain.*], raw socket
      syscalls) reachable through any call chain from a function defined
      in a charged layer is a violation even when the primitive lives
      three helpers away in [lib/core]. Traversal does not descend into
      the sanctioned infrastructure layers ([lib/runtime], [lib/clique],
      [lib/wire], [lib/fault]) — calling the metered runtime is the
      model, not a violation. Every other layer, [lib/metrics] included,
      is walked. The finding prints the chain hop by hop.

    - {b L11 — domain-race detector.} Top-level mutable state (ref cells,
      global [Hashtbl]/[Array]/[Bytes]/array-literal values) written from
      the domain-fanned region — functions in files that orchestrate
      [Domain]/[Pool] plus everything reachable from closures passed to
      [Pool.run]/[Domain.spawn] — is flagged unless the enclosing
      function uses [Mutex.lock]/[Mutex.protect], the state is managed
      through [Atomic], or the line carries an allow marker. Scoped to
      [lib/]: harness globals in tests are out of model.

    - {b L12 — AST-accurate hot-path allocation} (see {!Hotpath}).

    Every finding, L6 included, then passes one filter: a
    [(* cc_lint: allow Lk *)] marker naming its rule on its line drops
    it. *)

type result = {
  findings : Lint.finding list;
      (** sorted, suppressions applied, at most one per (file, line, rule) *)
  errors : string list;
      (** files that failed to parse, as [file:line message] strings; such
          a file yields no finding, but does not abort the run *)
  graph : Callgraph.t;  (** for [--graph] dumps and tests *)
}

val analyze : (string * string) list -> result
(** [analyze sources] over [(file, contents)] pairs: every rule but L6.
    [.ml] and [.mli] files both get the per-file rules; only [.ml] files
    join the call graph. Paths decide layer scoping and need not exist on
    disk. *)

val analyze_paths : string list -> result
(** Every rule over every [.ml]/[.mli] under the given roots
    (see {!Walk.collect}), each file read once; L6 runs over that file
    list. *)
