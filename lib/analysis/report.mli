(** Machine-readable rendering of lint findings. *)

val to_string : Lint.finding -> string
(** One line: [file:line rule message]. *)

val print : out_channel -> Lint.finding list -> unit

val summary : Lint.finding list -> string
(** ["cc_lint: clean"] or a finding count, for the trailing stderr line. *)

val rules_range : unit -> string
(** ["L1-L12"]-style span, derived from {!Rule.all} so it can never go
    stale when the catalog grows. *)

val rules_table : unit -> string
(** The full rule catalog — every id in {!Rule.all}, one per line — for
    [cc_lint --rules]. *)

val schema : string
(** Schema tag embedded in the JSON rendering, ["cc-lint/1"]. *)

val to_json : ?errors:string list -> Lint.finding list -> Metrics.Json.t
(** Findings (plus the files that failed to parse, [errors]) as a JSON tree
    that round-trips through [Metrics.Json.of_string]: an object with
    [schema], [rules], [count], [findings] (file/line/rule/message
    records) and [errors]. *)

val print_json : out_channel -> ?errors:string list -> Lint.finding list -> unit
(** [to_json] serialized (pretty-printed) followed by a newline. *)
