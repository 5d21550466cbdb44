(** The model-compliance linter's per-file rules.

    Enforces the hygiene rules of {!Rule} on one parse tree at a time:
    charged layers ([lib/sparsify], [lib/laplacian], [lib/flow],
    [lib/euler], [lib/rounding], [lib/expander]) must be deterministic and
    free of wall-clock state (L1, L2) and leave recovery to the driver
    (L7); transports may only be driven through the [Runtime] ledger
    outside [lib/runtime] and [lib/clique] (L3); [Obj.magic] (L4) and
    catch-all handlers (L5) are forbidden everywhere; raw socket syscalls
    are confined to [lib/wire] (L9); [Shard_down]
    is named only by the supervisor layer (L13); [Array.unsafe_get] and
    [Array.unsafe_set] only in [lib/linalg] (L14). Every lib module ships an
    [.mli] (L6, over the file list). The tree comes from the compiler's
    own parser ({!Ast}), so comments, strings and character literals are
    never mistaken for code. {!Semantic.analyze} runs these rules beside
    the call-graph rules and applies the allow markers. *)

type finding = { file : string; line : int; rule : Rule.id; message : string }
(** One lint hit, pointing at the offending source line. *)

val compare_findings : finding -> finding -> int
(** Orders by file, then line, then rule id. *)

val findings :
  file:string ->
  [ `Impl of Parsetree.structure | `Intf of Parsetree.signature ] ->
  finding list
(** L1-L5, L7, L9, L13 and L14 over one parsed file, in one walk; allow markers
    are not applied here. Every long identifier the tree carries is
    checked (values, constructors, record fields, types, module and
    module-type paths, [open]s, exception rebinds, type extensions), and
    every [try] handler case or [match ... with exception] case whose
    pattern is [_] with no guard is an L5 hit. [file] decides which rules
    apply (charged layer? transport-privileged?); it need not exist on
    disk. *)

val socket_calls : string list
(** The [Unix] calls that move bytes over a socket ([socket], [connect],
    [read], [write], ...): L9's list, and part of L10's sinks. *)

val missing_mlis : string list -> finding list
(** L6 over a path set: every [lib/**.ml] without a sibling [.mli] in the
    same list yields a finding at line 1. *)

val under : string -> string -> bool
(** [under layer path]: whether [path] lies in [lib/<layer>/]. *)

val is_lib_module : string -> bool
(** Whether a path lies under [lib/]. *)

val is_charged : string -> bool
(** Whether a path lies in a charged (round-priced) layer. *)

val transport_privileged : string -> bool
(** Whether a path may touch [Sim]/[Congest] directly: [lib/runtime],
    [lib/clique], and the harness trees ([test/], [bench/]) that exercise
    transport primitives by design. *)

val wire_privileged : string -> bool
(** Whether a path may issue raw socket syscalls ([Unix.socket],
    [Unix.connect], [Unix.read], [Unix.write], ...): [lib/wire/**] only.
    Rule L9 flags them everywhere else. *)
