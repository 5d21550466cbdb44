(** The model-compliance linter.

    Walks OCaml sources and enforces the hygiene rules of {!Rule}: charged
    layers ([lib/sparsify], [lib/laplacian], [lib/flow], [lib/euler],
    [lib/rounding], [lib/expander]) must be deterministic and free of
    wall-clock state (L1, L2); transports may only be driven through the
    [Runtime] ledger outside [lib/runtime] and [lib/clique] (L3); [Obj.magic]
    (L4) and catch-all handlers (L5) are forbidden everywhere; every [lib]
    module ships an [.mli] (L6); raw socket syscalls are confined to
    [lib/wire] and the socket transport (L9). Scanning is purely lexical
    (see {!Scan}), so sources can be checked in memory without a
    compiler. *)

type finding = { file : string; line : int; rule : Rule.id; message : string }
(** One lint hit, pointing at the offending source line. *)

val compare_findings : finding -> finding -> int
(** Orders by file, then line, then rule id. *)

val scan_source : file:string -> string -> finding list
(** Lint an in-memory source. [file] determines which rules apply (charged
    layer? transport-privileged?); it does not need to exist on disk.
    Findings suppressed by a [(* cc_lint: allow Lk *)] marker on their line
    are dropped. Sorted by {!compare_findings}. *)

val missing_mlis : string list -> finding list
(** L6 over a path set: every [lib/**.ml] without a sibling [.mli] in the
    same list yields a finding at line 1. *)

val lint_paths : string list -> finding list
(** Lint every [.ml]/[.mli] under the given roots (see {!Walk.collect}),
    including the L6 interface check over the collected set. *)

val is_charged : string -> bool
(** Whether a path lies in a charged (round-priced) layer. *)

val transport_privileged : string -> bool
(** Whether a path may touch [Sim]/[Congest] directly: [lib/runtime],
    [lib/clique], and the harness trees ([test/], [bench/]) that exercise
    transport primitives by design. *)

val wire_privileged : string -> bool
(** Whether a path may issue raw socket syscalls ([Unix.socket],
    [Unix.connect], [Unix.read], [Unix.write], ...): [lib/wire/**] and
    [lib/clique/socket.ml] only. Rule L9 flags them everywhere else. *)
