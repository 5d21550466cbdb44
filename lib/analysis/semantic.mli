(** The semantic (AST + call-graph) lint pass: rules L10-L12.

    Where the lexical pass of {!Lint} sees one line at a time, this pass
    parses every implementation with the compiler's own frontend
    ({!Ast}), builds a module-qualified call graph ({!Callgraph}), and
    runs interprocedural reachability ({!Dataflow}):

    - {b L10 — transitive model purity.} An impure primitive ([Random.*],
      [Unix.time]/[Unix.gettimeofday], [Sys.time], [Domain.*], raw socket
      syscalls) reachable through any call chain from a function defined
      in a charged layer is a violation even when the primitive lives
      three helpers away in [lib/core]. Traversal does not descend into
      the sanctioned infrastructure layers ([lib/runtime], [lib/clique],
      [lib/wire], [lib/fault], [lib/metrics]) — calling the metered
      runtime is the model, not a violation. The finding prints the chain
      hop by hop.

    - {b L11 — domain-race detector.} Top-level mutable state (ref cells,
      global [Hashtbl]/[Array]/[Bytes]/array-literal values) written from
      the domain-fanned region — functions in files that orchestrate
      [Domain]/[Pool] plus everything reachable from closures passed to
      [Pool.run]/[Domain.spawn] — is flagged unless the enclosing
      function uses [Mutex.lock]/[Mutex.protect], the state is managed
      through [Atomic], or the line carries an allow marker. Scoped to
      [lib/]: harness globals in tests are out of model.

    - {b L12 — AST-accurate hot-path allocation} (see {!Hotpath}).

    Findings honor the same per-line [(* cc_lint: allow Lk *)] markers as
    the lexical pass. *)

type result = {
  findings : Lint.finding list;  (** sorted, suppressions applied *)
  errors : string list;
      (** files that failed to parse, as [file:line message] strings; they
          are excluded from the graph rather than aborting the run *)
  graph : Callgraph.t;  (** for [--graph] dumps and tests *)
}

val analyze : (string * string) list -> result
(** [analyze sources] over [(file, contents)] pairs. [.ml] files are
    parsed and analyzed; [.mli] files are syntax-checked only (a parse
    failure is reported in [errors]). Paths decide layer scoping exactly
    as in the lexical pass and need not exist on disk. *)

val analyze_paths : string list -> result
(** [analyze] over every [.ml]/[.mli] under the given roots
    (see {!Walk.collect}). *)
