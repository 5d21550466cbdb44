(* Tests for the cc_lint model-compliance analyzer: every rule is planted
   in an in-memory source string and must be detected with the correct
   rule id and line number; suppression markers, comment/string immunity,
   and path scoping are exercised alongside. Every source goes through
   the one driver, Semantic.analyze; [scan] keeps the per-file rules'
   findings and [sem_findings] those of L10-L12. *)

module Lint = Analysis.Lint
module Rule = Analysis.Rule
module Semantic = Analysis.Semantic

let rule_t = Alcotest.testable
    (fun fmt id -> Format.pp_print_string fmt (Rule.to_string id))
    (fun a b -> a = b)

let check_findings what expected findings =
  Alcotest.(check (list (pair rule_t int)))
    what expected
    (List.map (fun f -> (f.Lint.rule, f.Lint.line)) findings)

let is_semantic (f : Lint.finding) = List.mem f.rule Rule.semantic

let scan ~file lines =
  List.filter
    (fun f -> not (is_semantic f))
    (Semantic.analyze [ (file, String.concat "\n" lines) ]).findings

(* ------------------------------------------------------ planted L1..L5 *)

let test_l1_entropy () =
  let findings =
    scan ~file:"lib/sparsify/fake.ml"
      [
        "let deterministic = 1";
        "";
        "let bad () = Random.int 10";
        "let sanctioned (p : Prng.t) = Prng.int p 10";
      ]
  in
  check_findings "Random. flagged at line 3" [ (Rule.L1, 3) ] findings;
  Alcotest.(check bool) "message names Graph.Prng" true
    (String.length (List.hd findings).Lint.message > 0
    && String.sub (Analysis.Report.to_string (List.hd findings)) 0
         (String.length "lib/sparsify/fake.ml:3 L1")
       = "lib/sparsify/fake.ml:3 L1")

let test_l1_scoped_to_charged_layers () =
  (* The graph generators are workload builders, not charged algorithms:
     Random there is out of scope (they use the seeded Prng anyway). *)
  check_findings "Random. allowed outside charged layers" []
    (scan ~file:"lib/graph/fake_gen.ml" [ "let x = Random.int 3" ]);
  check_findings "bin is not a charged layer" []
    (scan ~file:"bin/fake_cli.ml" [ "let x = Random.int 3" ])

let test_l2_wallclock () =
  check_findings "Unix. and Sys.time flagged with lines"
    [ (Rule.L2, 1); (Rule.L2, 4) ]
    (scan ~file:"lib/flow/fake.ml"
       [
         "let t0 = Unix.gettimeofday ()";
         "let fine = Sys.word_size";
         "let timer = \"Sys.time in a string is data, not a call\"";
         "let t1 = Sys.time ()";
       ])

let test_l2_every_identifier_kind () =
  (* Each line names Unix through another kind of long identifier: an
     open, a module alias, a type, a constructor pattern, a local open and
     an exception rebind. All are in the parse tree. *)
  check_findings "every identifier kind is checked"
    [ (Rule.L2, 1); (Rule.L2, 2); (Rule.L2, 3); (Rule.L2, 4); (Rule.L2, 5);
      (Rule.L2, 6) ]
    (scan ~file:"lib/flow/fake.ml"
       [
         "open Unix";
         "module U = Unix";
         "type fd = Unix.file_descr";
         "let f = function Unix.Unix_error _ -> 1 | _ -> 0";
         "let g () = Unix.(time ())";
         "exception E = Unix.Unix_error";
       ]);
  check_findings "interfaces are checked too" [ (Rule.L2, 1) ]
    (scan ~file:"lib/flow/fake.mli" [ "val fd : Unix.file_descr" ]);
  check_findings "a functor application in a type path" [ (Rule.L2, 1) ]
    (scan ~file:"lib/flow/fake.ml" [ "type s = Set.Make(Unix.Foo).t" ])

let test_l3_transport_bypass () =
  let src =
    [
      "let f sim = Sim.exchange sim boxes";
      "let g c = Clique.Congest.broadcast c values";
      "let ok rt = Runtime_instance.exchange rt boxes";
      "let also_ok = Sim.create 4";
    ]
  in
  check_findings "bypass flagged in a charged layer"
    [ (Rule.L3, 1); (Rule.L3, 2) ]
    (scan ~file:"lib/euler/fake.ml" src);
  check_findings "lib/runtime is privileged" []
    (scan ~file:"lib/runtime/fake.ml" src);
  check_findings "lib/clique is privileged" []
    (scan ~file:"lib/clique/fake.ml" src)

let test_l4_obj_magic () =
  check_findings "Obj.magic flagged everywhere"
    [ (Rule.L4, 2) ]
    (scan ~file:"lib/linalg/fake.ml"
       [ "let a = 1"; "let b : int = Obj.magic \"boom\"" ])

let test_l5_catch_all () =
  check_findings "catch-all handler flagged"
    [ (Rule.L5, 1) ]
    (scan ~file:"bin/fake.ml"
       [
         "let x = try dangerous () with _ -> 0";
         "let y = match v with _ -> 0";
         "let z = try f () with Not_found -> 1";
       ])

let test_l5_multiline_handler () =
  (* A handler case on its own line: the parse tree sees the [try] the
     [_] belongs to, wherever the [with] is. *)
  check_findings "multi-line catch-all flagged at the wildcard"
    [ (Rule.L5, 4) ]
    (scan ~file:"bin/fake.ml"
       [
         "let x =";
         "  try dangerous () with";
         "  | Not_found -> 1";
         "  | _ -> 0";
       ])

let test_l5_match_exception () =
  check_findings "match ... with exception _ flagged"
    [ (Rule.L5, 3) ]
    (scan ~file:"bin/fake.ml"
       [
         "let y = match f () with";
         "  | v -> v";
         "  | exception _ -> 0";
         "let z = match f () with _ -> 0 | exception Not_found -> 1";
       ])

let test_l5_guarded_wildcard () =
  check_findings "a guarded wildcard is not a catch-all" []
    (scan ~file:"bin/fake.ml"
       [
         "let x = try f () with _ when debug -> 0";
         "let y = match f () with v -> v | exception _ when debug -> 0";
       ])

let test_l7_recovery_in_charged_layer () =
  let src =
    [
      "let swallowed = try f () with Recover.Fault_detected _ -> fallback";
      "let retried rt = Recover.run ~retries:3 ~check rt f";
      "let fine = Check.eulerian g bits";
    ]
  in
  check_findings "Fault_detected and Recover.run flagged in charged layers"
    [ (Rule.L7, 1); (Rule.L7, 2) ]
    (scan ~file:"lib/laplacian/fake.ml" src);
  check_findings "the driver layers may recover" []
    (scan ~file:"lib/fault/fake.ml" src);
  check_findings "tests may recover" [] (scan ~file:"test/fake.ml" src);
  check_findings "suppressible like every rule" []
    (scan ~file:"lib/euler/fake.ml"
       [ "let x = Recover.run rt f (* cc_lint: allow L7 *)" ])

let test_l13_shard_down_outside_supervisor () =
  let src =
    [
      "let shrug rt = try f rt with Runtime.Shard.Shard_down _ -> fallback";
      "let reraise rt = raise (Shard.Shard_down { shard; round; during })";
      "let fine rt = f rt";
    ]
  in
  (* any lib layer outside the supervisor: both the catch and the raise
     are flagged — only the transport may even construct the exception *)
  check_findings "Shard_down flagged in charged layers"
    [ (Rule.L13, 1); (Rule.L13, 2) ]
    (scan ~file:"lib/laplacian/fake.ml" src);
  check_findings "flagged in uncharged lib layers too"
    [ (Rule.L13, 1); (Rule.L13, 2) ]
    (scan ~file:"lib/linalg/fake.ml" src);
  (* the supervisor layer and the definition site are privileged *)
  check_findings "the socket coordinator may supervise" []
    (scan ~file:"lib/clique/socket.ml" src);
  check_findings "the fault drivers may supervise" []
    (scan ~file:"lib/fault/fake.ml" src);
  check_findings "the definition site is exempt" []
    (scan ~file:"lib/runtime/shard.ml" src);
  (* but the rest of lib/clique and lib/runtime is not *)
  check_findings "sim.ml is not the supervisor"
    [ (Rule.L13, 1); (Rule.L13, 2) ]
    (scan ~file:"lib/clique/sim.ml" src);
  (* harness trees assert on Shard_down freely *)
  check_findings "tests are exempt" [] (scan ~file:"test/fake.ml" src);
  check_findings "bench is exempt" [] (scan ~file:"bench/fake.ml" src);
  check_findings "bin is exempt" [] (scan ~file:"bin/fake.ml" src);
  check_findings "suppressible like every rule" []
    (scan ~file:"lib/euler/fake.ml"
       [ "let x = try f () with Shard.Shard_down _ -> g () (* cc_lint: \
          allow L13 *)" ])

(* ------------------------------------------------------------------ L6 *)

let test_l6_missing_mli () =
  let findings =
    Lint.missing_mlis
      [
        "lib/foo/a.ml";
        "lib/foo/a.mli";
        "lib/foo/b.ml";
        "bin/cli.ml";
        "test/test_x.ml";
      ]
  in
  check_findings "only the lib module without .mli" [ (Rule.L6, 1) ] findings;
  Alcotest.(check string) "finding names the .ml file" "lib/foo/b.ml"
    (List.hd findings).Lint.file

(* ------------------------------------------- suppression and immunity *)

let test_suppression () =
  check_findings "allow marker suppresses exactly its rule" []
    (scan ~file:"lib/sparsify/fake.ml"
       [ "let x = Random.int 10 (* cc_lint: allow L1 *)" ]);
  check_findings "marker for another rule does not suppress"
    [ (Rule.L1, 1) ]
    (scan ~file:"lib/sparsify/fake.ml"
       [ "let x = Random.int 10 (* cc_lint: allow L2 *)" ]);
  check_findings "one marker can allow several rules" []
    (scan ~file:"lib/sparsify/fake.ml"
       [ "let x = try Random.int 10 with _ -> 0 (* cc_lint: allow L1 L5 *)" ])

let test_marker_closed_by_stars () =
  (* The words after a marker end at the first '*', so a comment closed
     by two stars ends the list like one closed by one. *)
  check_findings "a marker closed by **) still suppresses" []
    (scan ~file:"lib/sparsify/fake.ml"
       [ "let x = Random.int 10 (* cc_lint: allow L1 **)" ]);
  Alcotest.(check (list string)) "hot names end at the first '*'"
    [ "deliver"; "scatter" ]
    (Rule.hot_names "(* cc_lint: hot deliver, scatter**)")

let test_comment_and_string_immunity () =
  check_findings "tokens in comments and strings are data" []
    (scan ~file:"lib/sparsify/fake.ml"
       [
         "(* Random.int would be a violation here *)";
         "let doc = \"uses Random.int and Obj.magic and Unix.time\"";
         "(* nested (* Obj.magic *) still comment *)";
         "let c = 'R'";
       ]);
  check_findings "code after a comment on the same line is still scanned"
    [ (Rule.L1, 1) ]
    (scan ~file:"lib/sparsify/fake.ml"
       [ "let x = (* entropy! *) Random.int 10" ])

let test_token_boundaries () =
  check_findings "identifier prefixes do not match" []
    (scan ~file:"lib/sparsify/fake.ml"
       [
         "let x = My_random.int 10";
         "let y = Pseudo_Sim.exchange 1";
         "let z = sys_time ()";
       ])

(* --------------------------------------------------------- planted L9 *)

let test_l9_raw_sockets () =
  let src =
    [
      "let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0";
      "let ok = Unix.getpid ()";
      "let n = Unix.read fd buf 0 len";
      "let m = Unix.single_write fd buf 0 len";
      "let s = \"Unix.connect in a string is data\"";
    ]
  in
  check_findings "raw socket calls flagged outside the wire layer"
    [ (Rule.L9, 1); (Rule.L9, 3); (Rule.L9, 4) ]
    (scan ~file:"lib/fault/fake.ml" src);
  check_findings "bin is not wire-privileged either"
    [ (Rule.L9, 1); (Rule.L9, 3); (Rule.L9, 4) ]
    (scan ~file:"bin/fake_tool.ml" src)

let test_l9_wire_privilege () =
  let src = [ "let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0" ] in
  check_findings "lib/wire may open sockets" []
    (scan ~file:"lib/wire/fake_link.ml" src);
  check_findings "the socket transport may not"
    [ (Rule.L9, 1) ]
    (scan ~file:"lib/clique/socket.ml" src);
  check_findings "the rest of lib/clique may not"
    [ (Rule.L9, 1) ]
    (scan ~file:"lib/clique/sim.ml" src)

let test_l9_allow_suppression () =
  (* The id token after the allow marker matches case-insensitively. *)
  check_findings "lowercase allow marker suppresses" []
    (scan ~file:"lib/fault/fake.ml"
       [ "let fd = Unix.accept lsock (* cc_lint: allow l9 *)" ]);
  check_findings "uppercase allow marker suppresses" []
    (scan ~file:"lib/fault/fake.ml"
       [ "let fd = Unix.accept lsock (* cc_lint: allow L9 *)" ]);
  check_findings "unrelated allow id keeps the finding"
    [ (Rule.L9, 1) ]
    (scan ~file:"lib/fault/fake.ml"
       [ "let fd = Unix.accept lsock (* cc_lint: allow L2 *)" ])

(* -------------------------------------------------------- planted L14 *)

let test_l14_unchecked_access () =
  let src =
    [
      "let get a i = Array.unsafe_get a i";
      "let set a i v = Stdlib.Array.unsafe_set a i v";
      "let ok a i = Array.get a i";
      "let s = \"Array.unsafe_get in a string is data\"";
      "let f = Float.Array.unsafe_get";
    ]
  in
  check_findings "unchecked access flagged outside lib/linalg"
    [ (Rule.L14, 1); (Rule.L14, 2); (Rule.L14, 5) ]
    (scan ~file:"lib/laplacian/fake.ml" src);
  check_findings "harness trees are not privileged either"
    [ (Rule.L14, 1); (Rule.L14, 2); (Rule.L14, 5) ]
    (scan ~file:"test/fake_test.ml" src);
  check_findings "lib/linalg may index unchecked" []
    (scan ~file:"lib/linalg/fake.ml" src);
  check_findings "allow marker waives it" []
    (scan ~file:"lib/sparsify/fake.ml"
       [ "let get a i = Array.unsafe_get a i (* cc_lint: allow L14 *)" ])

(* ------------------------------------------------- output and catalog *)

let test_report_format () =
  let f =
    List.hd (scan ~file:"lib/flow/x.ml" [ "let t = Sys.time ()" ])
  in
  let line = Analysis.Report.to_string f in
  Alcotest.(check bool) "machine-readable prefix" true
    (String.sub line 0 (String.length "lib/flow/x.ml:1 L2 ")
    = "lib/flow/x.ml:1 L2 ")

let test_rule_catalog () =
  Alcotest.(check int) "thirteen rules" 13 (List.length Rule.all);
  Alcotest.(check (option rule_t)) "the retired L8 is no rule" None
    (Rule.of_string "L8");
  List.iter
    (fun id ->
      Alcotest.(check (option rule_t))
        "to_string/of_string roundtrip" (Some id)
        (Rule.of_string (Rule.to_string id)))
    Rule.all;
  (* The catalog range is derived from Rule.all (no stale "L1-L6" strings
     anywhere): both the --rules table and the JSON header grow with the
     variant automatically. *)
  Alcotest.(check string) "range derived from Rule.all" "L1-L14"
    (Analysis.Report.rules_range ());
  Alcotest.(check int) "one table line per rule" (List.length Rule.all)
    (List.length
       (String.split_on_char '\n' (Analysis.Report.rules_table ())));
  Alcotest.(check (list rule_t)) "semantic subset"
    [ Rule.L10; Rule.L11; Rule.L12 ]
    Rule.semantic

let test_every_rule_detected_once () =
  (* One source tripping L1..L5 on five known lines, as the acceptance
     criterion demands: each planted violation is found with the correct
     rule id and line. *)
  let findings =
    scan ~file:"lib/rounding/planted.ml"
      [
        "let l1 = Random.bits ()";
        "let l2 = Unix.time ()";
        "let l3 rt = Congest.route rt msgs";
        "let l4 = Obj.magic 0";
        "let l5 = try l4 with _ -> 1";
      ]
  in
  check_findings "all five lexical rules, in order"
    [ (Rule.L1, 1); (Rule.L2, 2); (Rule.L3, 3); (Rule.L4, 4); (Rule.L5, 5) ]
    findings

(* The per-file rules; the suite name stays "lexical" so test ids stay
   stable. *)
let lexical_suite =
  [
    Alcotest.test_case "L1: entropy in charged layer" `Quick test_l1_entropy;
    Alcotest.test_case "L1: scoping" `Quick test_l1_scoped_to_charged_layers;
    Alcotest.test_case "L2: wall-clock" `Quick test_l2_wallclock;
    Alcotest.test_case "L2: every identifier kind" `Quick
      test_l2_every_identifier_kind;
    Alcotest.test_case "L3: transport bypass" `Quick test_l3_transport_bypass;
    Alcotest.test_case "L4: Obj.magic" `Quick test_l4_obj_magic;
    Alcotest.test_case "L5: catch-all handler" `Quick test_l5_catch_all;
    Alcotest.test_case "L5: multi-line handler" `Quick
      test_l5_multiline_handler;
    Alcotest.test_case "L5: match with exception _" `Quick
      test_l5_match_exception;
    Alcotest.test_case "L5: guarded wildcard" `Quick test_l5_guarded_wildcard;
    Alcotest.test_case "L6: missing mli" `Quick test_l6_missing_mli;
    Alcotest.test_case "L7: recovery in charged layer" `Quick
      test_l7_recovery_in_charged_layer;
    Alcotest.test_case "L13: Shard_down outside the supervisor" `Quick
      test_l13_shard_down_outside_supervisor;
    Alcotest.test_case "L9: raw sockets outside the wire layer" `Quick
      test_l9_raw_sockets;
    Alcotest.test_case "L9: wire layer is privileged" `Quick
      test_l9_wire_privilege;
    Alcotest.test_case "L9: case-insensitive allow" `Quick
      test_l9_allow_suppression;
    Alcotest.test_case "L14: unchecked access outside lib/linalg" `Quick
      test_l14_unchecked_access;
    Alcotest.test_case "suppression markers" `Quick test_suppression;
    Alcotest.test_case "marker closed by **)" `Quick
      test_marker_closed_by_stars;
    Alcotest.test_case "comment/string immunity" `Quick
      test_comment_and_string_immunity;
    Alcotest.test_case "token boundaries" `Quick test_token_boundaries;
    Alcotest.test_case "report format" `Quick test_report_format;
    Alcotest.test_case "rule catalog" `Quick test_rule_catalog;
    Alcotest.test_case "planted L1-L5 all detected" `Quick
      test_every_rule_detected_once;
  ]

(* ============================================ call-graph and hot rules == *)

module Report = Analysis.Report
module Json = Metrics.Json

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let sem_findings sources =
  List.filter is_semantic (Semantic.analyze sources).Semantic.findings

(* -------------------------------------------------- L10: transitive purity *)

(* A charged sparsifier reaching [Random.int] through two helper hops in
   lib/core — the exact shape the per-file rules are blind to, since no
   charged-layer identifier names an entropy source. *)
let entropy_src = "let draw n = Random.int n\n"
let helper_src = "let scale x = x * 2\nlet pick n = Entropy.draw (scale n)\n"
let algo_src = "let choose n = Helper.pick n\nlet pure n = n + 1\n"

let l10_corpus =
  [
    ("lib/core/entropy.ml", entropy_src);
    ("lib/core/helper.ml", helper_src);
    ("lib/sparsify/algo.ml", algo_src);
  ]

let test_l10_multihop_chain () =
  (* Pinned blind spot #1: the per-file rules see nothing in any of the
     three files (lib/core is not a charged layer, and the charged file
     never names Random). *)
  List.iter
    (fun (file, src) ->
      check_findings ("lexical pass is blind: " ^ file) []
        (scan ~file [ src ]))
    l10_corpus;
  (* ... and L10 pins it with a hop-by-hop witness chain that names every
     intermediate function. *)
  let findings = sem_findings l10_corpus in
  check_findings "one L10 finding at the charged call site"
    [ (Rule.L10, 1) ] findings;
  let f = List.hd findings in
  Alcotest.(check string) "anchored in the charged file" "lib/sparsify/algo.ml"
    f.Lint.file;
  Alcotest.(check bool) "chain names every hop" true
    (contains f.Lint.message
       "Algo.choose -> Helper.pick -> Entropy.draw -> Random.int")

let test_l10_stops_at_privileged_layers () =
  (* Charged code calling the metered runtime (which spawns domains
     internally) is the sanctioned path: traversal must not descend into
     lib/runtime and surface its Domain use against the caller. *)
  check_findings "runtime internals are not charged to callers" []
    (sem_findings
       [
         ("lib/runtime/fake_rt.ml", "let step f = ignore (Domain.spawn f)\n");
         ("lib/flow/fake_push.ml", "let run f = Fake_rt.step f\n");
       ]);
  (* lib/metrics holds only JSON code and is walked like any helper
     layer: a clock read there is reported against its charged caller. *)
  let findings =
    sem_findings
      [
        ("lib/metrics/fake_clock.ml", "let now () = Unix.gettimeofday ()\n");
        ("lib/flow/fake_ipm.ml", "let step () = Fake_clock.now ()\n");
      ]
  in
  check_findings "a clock read under lib/metrics is found"
    [ (Rule.L10, 1) ] findings;
  Alcotest.(check bool) "chain walks into lib/metrics" true
    (contains (List.hd findings).Lint.message
       "Fake_ipm.step -> Fake_clock.now -> Unix.gettimeofday")

let test_l10_direct_hit_and_suppression () =
  let findings =
    sem_findings
      [ ("lib/euler/fake_tour.ml", "let now () = Unix.gettimeofday ()\n") ]
  in
  check_findings "direct impurity is a one-hop chain"
    [ (Rule.L10, 1) ] findings;
  Alcotest.(check bool) "single-hop chain format" true
    (contains (List.hd findings).Lint.message
       "Fake_tour.now -> Unix.gettimeofday");
  check_findings "allow marker silences L10" []
    (sem_findings
       [
         ( "lib/euler/fake_tour.ml",
           "let now () = Unix.gettimeofday () (* cc_lint: allow L10 *)\n" );
       ])

let test_l10_module_alias () =
  (* [module E = Entropy] must expand before suffix matching, or the
     reference dangles as an unknown external and the chain is lost. *)
  let findings =
    sem_findings
      [
        ("lib/core/entropy.ml", entropy_src);
        ( "lib/laplacian/fake_solver.ml",
          "module E = Entropy\nlet solve n = E.draw n\n" );
      ]
  in
  check_findings "alias-qualified call resolves" [ (Rule.L10, 2) ] findings;
  Alcotest.(check bool) "chain crosses the alias" true
    (contains (List.hd findings).Lint.message
       "Fake_solver.solve -> Entropy.draw -> Random.int")

(* -------------------------------------------------- L11: domain races *)

let sched_src =
  "let counter = ref 0\n\
   let step lo hi = incr counter; ignore (lo + hi)\n\
   let fan pool n = Pool.run pool ~n (fun lo hi -> step lo hi)\n"

let test_l11_planted_race () =
  let findings = sem_findings [ ("lib/runtime/fake_sched.ml", sched_src) ] in
  check_findings "global write from the fanned region"
    [ (Rule.L11, 2) ] findings;
  let msg = (List.hd findings).Lint.message in
  Alcotest.(check bool) "names the global and the writer" true
    (contains msg "Fake_sched.counter" && contains msg "Fake_sched.step")

let test_l11_exemptions () =
  check_findings "Atomic state is the sanctioned fix" []
    (sem_findings
       [
         ( "lib/runtime/fake_sched.ml",
           "let counter = Atomic.make 0\n\
            let step lo hi = Atomic.incr counter; ignore (lo + hi)\n\
            let fan pool n = Pool.run pool ~n (fun lo hi -> step lo hi)\n" );
       ]);
  check_findings "Mutex discipline exempts the writer" []
    (sem_findings
       [
         ( "lib/runtime/fake_sched.ml",
           "let counter = ref 0\n\
            let m = Mutex.create ()\n\
            let step lo hi =\n\
           \  Mutex.lock m; incr counter; Mutex.unlock m; ignore (lo + hi)\n\
            let fan pool n = Pool.run pool ~n (fun lo hi -> step lo hi)\n" );
       ]);
  check_findings "allow marker silences L11" []
    (sem_findings
       [
         ( "lib/runtime/fake_sched.ml",
           "let counter = ref 0\n\
            let step lo hi = incr counter; ignore (lo + hi) (* cc_lint: \
            allow L11 — planted *)\n\
            let fan pool n = Pool.run pool ~n (fun lo hi -> step lo hi)\n" );
       ]);
  check_findings "scoped to lib/: harness globals are out of model" []
    (sem_findings [ ("bench/fake_sched.ml", sched_src) ]);
  check_findings "no domain fan-out, no region, no finding" []
    (sem_findings
       [
         ( "lib/runtime/fake_acc.ml",
           "let counter = ref 0\nlet bump () = incr counter\n" );
       ])

(* ------------------------------------- L12: AST-accurate hot-path allocs *)

let factory_src =
  "(* cc_lint: hot deliver *)\n\
   let make_deliver n =\n\
  \  let deliver v =\n\
  \    let buf = Array.make n v in\n\
  \    buf\n\
  \  in\n\
  \  deliver\n"

let test_l12_nested_let_blind_spot () =
  (* A hot function bound by a nested [let] under a cold factory is in
     scope too: L12 finds bindings in the parse tree, at any depth. *)
  let findings =
    sem_findings [ ("lib/runtime/fake_factory.ml", factory_src) ]
  in
  check_findings "L12 sees the nested hot binding" [ (Rule.L12, 4) ] findings;
  let msg = (List.hd findings).Lint.message in
  Alcotest.(check bool) "names the primitive and the hot function" true
    (contains msg "Array.make" && contains msg "deliver")

let test_l12_flat_code () =
  (* Only functions named by the hot marker are in scope; the marker's
     position in the file does not matter. *)
  let src =
    String.concat "\n"
      [
        "(* cc_lint: hot deliver scatter *)";
        "let create n = Array.make n 0";
        "let deliver t =";
        "  let tbl = Hashtbl.create 16 in";
        "  ignore tbl;";
        "  Array.make 4 0";
        "let cold () = Bytes.create 8";
        "and scatter () = Bytes.create 8";
      ]
    ^ "\n"
  in
  let findings = sem_findings [ ("lib/runtime/fake_kernel.ml", src) ] in
  check_findings "allocs inside hot functions only"
    [ (Rule.L12, 4); (Rule.L12, 6); (Rule.L12, 8) ]
    findings;
  List.iter
    (fun (f : Lint.finding) ->
      Alcotest.(check bool) "message names the offending primitive" true
        (List.exists (contains f.message)
           [ "Hashtbl.create"; "Array.make"; "Bytes.create" ]))
    findings;
  check_findings "no marker, no findings" []
    (sem_findings
       [ ("lib/runtime/fake_kernel.ml", "let deliver t = Hashtbl.create 16\n") ]);
  (* The hot marker is an explicit opt-in, so it works outside lib too
     (unlike the charged-layer path scoping of L1/L2/L7). *)
  check_findings "marker works in bin too"
    [ (Rule.L12, 2) ]
    (sem_findings
       [
         ( "bin/fake_tool.ml",
           "(* cc_lint: hot main *)\nlet main () = Array.make 3 1\n" );
       ])

let test_l12_allow_markers () =
  let with_marker marker =
    Printf.sprintf
      "(* cc_lint: hot deliver *)\nlet deliver t = Array.make t 0 (* cc_lint: \
       allow %s *)\n"
      marker
  in
  check_findings "allow L12 silences the finding" []
    (sem_findings [ ("lib/runtime/fake_kernel.ml", with_marker "L12") ]);
  check_findings "a reason after the id is fine" []
    (sem_findings
       [ ("lib/runtime/fake_kernel.ml", with_marker "L12 — escapes") ]);
  check_findings "unrelated allow id keeps the finding"
    [ (Rule.L12, 2) ]
    (sem_findings [ ("lib/runtime/fake_kernel.ml", with_marker "L5") ])

(* ------------------------------------------- robustness, JSON, graph *)

let test_parse_errors_are_collected () =
  let r =
    Semantic.analyze
      [
        ("lib/core/bad.ml", "let = broken (");
        ("lib/core/bad.mli", "val : int");
        ("lib/sparsify/good.ml", "let pure x = x + 1\n");
      ]
  in
  Alcotest.(check int) "both bad files reported" 2
    (List.length r.Semantic.errors);
  List.iter
    (fun e ->
      Alcotest.(check bool) "error names the file" true
        (contains e "lib/core/bad."))
    r.Semantic.errors;
  check_findings "good files still analyzed, cleanly" [] r.Semantic.findings

let test_json_roundtrip () =
  let r = Semantic.analyze l10_corpus in
  let errors = [ "lib/core/bad.ml:1 syntax error" ] in
  let j = Report.to_json ~errors r.Semantic.findings in
  let s = Json.to_string j in
  Alcotest.(check bool) "schema tag embedded" true (contains s Report.schema);
  Alcotest.(check bool) "rules span embedded" true (contains s "L1-L14");
  (match Json.of_string s with
  | Ok j' -> Alcotest.(check bool) "round-trips" true (Json.equal j j')
  | Error e -> Alcotest.fail ("to_json output failed to parse: " ^ e));
  (match Json.member "count" j with
  | Some c ->
    Alcotest.(check (option int)) "count field matches findings"
      (Some (List.length r.Semantic.findings))
      (Json.to_int_opt c)
  | None -> Alcotest.fail "count field missing")

let test_graph_dot () =
  let r = Semantic.analyze l10_corpus in
  let dot = Analysis.Callgraph.to_dot r.Semantic.graph in
  Alcotest.(check bool) "digraph preamble" true (contains dot "digraph");
  Alcotest.(check bool) "nodes present" true
    (contains dot "Algo.choose" && contains dot "Helper.pick");
  Alcotest.(check bool) "edges present" true (contains dot "->")

let semantic_suite =
  [
    Alcotest.test_case "L10: multi-hop chain vs lexical blind spot" `Quick
      test_l10_multihop_chain;
    Alcotest.test_case "L10: privileged layers stop traversal" `Quick
      test_l10_stops_at_privileged_layers;
    Alcotest.test_case "L10: direct hit and suppression" `Quick
      test_l10_direct_hit_and_suppression;
    Alcotest.test_case "L10: module alias resolution" `Quick
      test_l10_module_alias;
    Alcotest.test_case "L11: planted race" `Quick test_l11_planted_race;
    Alcotest.test_case "L11: exemptions and scoping" `Quick
      test_l11_exemptions;
    Alcotest.test_case "L12: nested-let blind spot" `Quick
      test_l12_nested_let_blind_spot;
    Alcotest.test_case "L12: hot functions on flat code" `Quick
      test_l12_flat_code;
    Alcotest.test_case "L12: allow markers" `Quick test_l12_allow_markers;
    Alcotest.test_case "parse errors are collected, not fatal" `Quick
      test_parse_errors_are_collected;
    Alcotest.test_case "JSON round-trips through Metrics.Json" `Quick
      test_json_roundtrip;
    Alcotest.test_case "call-graph DOT dump" `Quick test_graph_dot;
  ]

let () =
  Alcotest.run "analysis"
    [ ("lexical", lexical_suite); ("semantic", semantic_suite) ]
