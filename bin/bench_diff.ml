(* bench_diff — the regression gate over BENCH_*.json telemetry.

   Usage:
     bench_diff [options] OLD NEW

   OLD and NEW are either two directories containing BENCH_E<k>.json files
   (the committed baseline vs a fresh run) or two individual files. The
   round series of seeded experiments are bit-for-bit deterministic, so any
   drift in the "rounds" subtree of any row is a hard failure. So is a
   "*_fnv" key in an old row's "stats" (a fingerprint of a solution or a
   sparsifier) that changed or is missing from the new row: decomposition
   rounds are charged by formula, so a changed partition shows only
   there. Other "stats" differences are reported but never fail (floats
   may drift across platforms); wall-clock is gated by a ratio threshold
   and is meant to run as a soft CI step. Policy: DESIGN.md §8.

   Exit codes: 0 no drift, 1 drift detected, 2 usage or parse error. *)

module J = Metrics.Json

let threshold = ref 1.5

let check_wallclock = ref true

let paths = ref []

let usage = "usage: bench_diff [--wallclock-threshold R] [--no-wallclock] OLD NEW"

let spec =
  [
    ( "--wallclock-threshold",
      Arg.Set_float threshold,
      "R  fail when new/old time-per-run exceeds R (default 1.5)" );
    ( "--no-wallclock",
      Arg.Clear check_wallclock,
      "  compare round series only (the hard gate)" );
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench_diff: " ^ s); exit 2) fmt

let drift = ref 0

let notes = ref 0

let fail_drift fmt =
  Printf.ksprintf
    (fun s ->
      incr drift;
      Printf.printf "DRIFT %s\n" s)
    fmt

let note fmt =
  Printf.ksprintf
    (fun s ->
      incr notes;
      Printf.printf "note  %s\n" s)
    fmt

let load path =
  let ic = try open_in_bin path with Sys_error e -> die "%s" e in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match J.of_string s with
  | Ok v -> v
  | Error e -> die "%s: %s" path e

let str_field name j =
  match J.member name j with
  | Some (J.String s) -> s
  | _ -> die "missing string field %S" name

let get_rows series_j =
  match J.member "rows" series_j with
  | Some (J.List rows) ->
    List.map (fun r -> (Option.value ~default:"?" (Option.bind (J.member "key" r) J.to_string_opt), r)) rows
  | _ -> []

let get_series exp_j =
  match J.member "series" exp_j with
  | Some (J.List ss) ->
    List.map (fun s -> (str_field "name" s, get_rows s)) ss
  | _ -> die "experiment %s has no series list" (str_field "experiment" exp_j)

(* Fingerprints are exact: every "*_fnv" stats key of the old row must be
   in the new row, unchanged. A fingerprint that stops being computed is
   drift too, or it would pass the gate unseen. *)
let fingerprint_drift ~id ~series_name ~key old_stats new_stats =
  let fields = function J.Assoc kv -> kv | _ -> [] in
  List.iter
    (fun (name, v) ->
      if String.ends_with ~suffix:"_fnv" name then
        match List.assoc_opt name (fields new_stats) with
        | Some v' when J.equal v v' -> ()
        | Some v' ->
          fail_drift "%s %s %s: %s %s -> %s" id series_name key name
            (J.to_string ~minify:true v)
            (J.to_string ~minify:true v')
        | None ->
          fail_drift "%s %s %s: %s %s vanished" id series_name key name
            (J.to_string ~minify:true v))
    (fields old_stats)

(* The hard gate: the "rounds" subtree (total, ref, per-phase breakdown)
   must be structurally identical for every row key present in OLD. *)
let compare_rows ~id ~series_name old_rows new_rows =
  List.iter
    (fun (key, old_row) ->
      match List.assoc_opt key new_rows with
      | None -> fail_drift "%s %s: row %S disappeared" id series_name key
      | Some new_row -> (
        let old_rounds = J.member "rounds" old_row
        and new_rounds = J.member "rounds" new_row in
        (match (old_rounds, new_rounds) with
        | Some o, Some n ->
          if not (J.equal o n) then
            fail_drift "%s %s %s: rounds %s -> %s" id series_name key
              (J.to_string ~minify:true o)
              (J.to_string ~minify:true n)
        | _ -> fail_drift "%s %s %s: malformed rounds field" id series_name key);
        let stats row =
          Option.value (J.member "stats" row) ~default:(J.Assoc [])
        in
        let o = stats old_row and n = stats new_row in
        if not (J.equal o n) then begin
          fingerprint_drift ~id ~series_name ~key o n;
          note "%s %s %s: stats %s -> %s (informational)" id series_name key
            (J.to_string ~minify:true o)
            (J.to_string ~minify:true n)
        end))
    old_rows;
  List.iter
    (fun (key, _) ->
      if not (List.mem_assoc key old_rows) then
        note "%s %s: new row %S (not in baseline)" id series_name key)
    new_rows

(* The soft gate. The full per-kernel ratio table is printed even when every
   row passes — CI logs then show the trend, not just the failures. *)
let compare_wallclock ~id old_j new_j =
  let entries j =
    match J.member "wall_clock" j with Some (J.Assoc kv) -> kv | _ -> []
  in
  let time j =
    Option.bind (J.member "time_per_run_ns" j) J.to_float_opt
  in
  List.iter
    (fun (kernel, old_entry) ->
      match List.assoc_opt kernel (entries new_j) with
      | None -> note "%s wall-clock kernel %S missing in new run" id kernel
      | Some new_entry -> (
        match (time old_entry, time new_entry) with
        | Some o, Some n when o > 0. ->
          let ratio = n /. o in
          if ratio > !threshold then
            fail_drift
              "%s wall-clock %-24s %12.0f ns -> %12.0f ns  %.2fx (threshold \
               %.2fx)"
              id kernel o n ratio !threshold
          else
            Printf.printf "wall  %s %-24s %12.0f ns -> %12.0f ns  %.2fx%s\n"
              id kernel o n ratio
              (if ratio < 1. /. !threshold then "  (improved)" else "")
        | _ -> note "%s wall-clock %s: missing estimate" id kernel))
    (entries old_j)

let compare_files old_path new_path =
  let old_j = load old_path and new_j = load new_path in
  let version j =
    match J.member "schema_version" j with Some (J.Int v) -> v | _ -> -1
  in
  if version old_j <> version new_j then
    die "%s and %s have different schema versions (%d vs %d)" old_path
      new_path (version old_j) (version new_j);
  let id = str_field "experiment" old_j in
  if str_field "experiment" new_j <> id then
    die "%s is %s but %s is %s" old_path id new_path
      (str_field "experiment" new_j);
  let old_mode = str_field "mode" old_j and new_mode = str_field "mode" new_j in
  if old_mode <> new_mode then
    die
      "mode mismatch for %s (%s vs %s): a reduced run only compares \
       against a reduced baseline"
      id old_mode new_mode;
  let new_series = get_series new_j in
  List.iter
    (fun (name, old_rows) ->
      match List.assoc_opt name new_series with
      | None -> fail_drift "%s: series %S disappeared" id name
      | Some new_rows -> compare_rows ~id ~series_name:name old_rows new_rows)
    (get_series old_j);
  if !check_wallclock then compare_wallclock ~id old_j new_j

let bench_files dir =
  let all = try Sys.readdir dir with Sys_error e -> die "%s" e in
  Array.to_list all
  |> List.filter (fun f ->
         String.length f > 6
         && String.sub f 0 6 = "BENCH_"
         && Filename.check_suffix f ".json")
  |> List.sort compare

let () =
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  match List.rev !paths with
  | [ old_p; new_p ] ->
    (if Sys.is_directory old_p && Sys.is_directory new_p then begin
       let old_files = bench_files old_p and new_files = bench_files new_p in
       if old_files = [] then die "no BENCH_*.json files in %s" old_p;
       List.iter
         (fun f ->
           if List.mem f new_files then
             compare_files (Filename.concat old_p f) (Filename.concat new_p f)
           else fail_drift "%s missing from %s" f new_p)
         old_files;
       List.iter
         (fun f ->
           if not (List.mem f old_files) then
             note "%s not in baseline %s" f old_p)
         new_files
     end
     else if (not (Sys.is_directory old_p)) && not (Sys.is_directory new_p)
     then compare_files old_p new_p
     else die "OLD and NEW must both be directories or both be files");
    if !drift > 0 then begin
      Printf.printf "bench_diff: %d drift(s), %d note(s)\n" !drift !notes;
      exit 1
    end
    else Printf.printf "bench_diff: no drift (%d note(s))\n" !notes
  | _ -> die "%s" usage
