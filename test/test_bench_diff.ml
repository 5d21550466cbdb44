(* The round gate, run as a program on small crafted BENCH files: which
   differences fail it (exit 1), which make the comparison unusable
   (exit 2), and which pass (exit 0). *)

module J = Metrics.Json

(* The gate binary, built next to this test (a dependency in test/dune). *)
let bench_diff =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "bench_diff.exe"))

let fnv = ("x_fnv", J.String "9f3a0c1d2b4e5a67")

let stats = [ ("alpha", J.Float 6.0); fnv ]

let row ?(gather = 4) ?(stats = stats) key =
  J.Assoc
    [
      ("key", J.String key);
      ("params", J.Assoc []);
      ( "rounds",
        J.Assoc
          [
            ("total", J.Int (80 + gather));
            ( "phases",
              J.Assoc [ ("sparsify", J.Int 80); ("gather", J.Int gather) ] );
          ] );
      ("stats", J.Assoc stats);
    ]

let bench ?(schema = 1) ?(mode = "reduced") ?(extra = []) rows =
  J.Assoc
    ([
       ("schema_version", J.Int schema);
       ("experiment", J.String "E2");
       ("title", J.String "a crafted series");
       ("mode", J.String mode);
       ("git_rev", J.String "unknown");
       ( "series",
         J.List
           [
             J.Assoc
               [
                 ("name", J.String "eps-sweep");
                 ("seed", J.Int 5);
                 ("rows", J.List rows);
               ];
           ] );
       ("wall_clock", J.Assoc []);
     ]
    @ extra)

let rows = [ row "eps=1e-01"; row "eps=1e-03" ]

let baseline = bench rows

let with_first r = bench (r :: List.tl rows)

let write doc =
  let path = Filename.temp_file "bench_diff" ".json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string doc));
  path

let exit_code old_doc new_doc =
  let old_path = write old_doc and new_path = write new_doc in
  let code =
    Sys.command
      (Filename.quote_command bench_diff ~stdout:Filename.null
         ~stderr:Filename.null
         [ "--no-wallclock"; old_path; new_path ])
  in
  Sys.remove old_path;
  Sys.remove new_path;
  code

let case name want old_doc new_doc =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check int) "exit code" want (exit_code old_doc new_doc))

let () =
  Alcotest.run "bench_diff"
    [
      ( "gate",
        [
          case "identical files pass" 0 baseline baseline;
          case "another non-fingerprint stat is a note" 0 baseline
            (with_first
               (row ~stats:[ ("alpha", J.Float 6.5); fnv ] "eps=1e-01"));
          case "a changed rounds phase is drift" 1 baseline
            (with_first (row ~gather:5 "eps=1e-01"));
          case "a changed x_fnv is drift" 1 baseline
            (with_first
               (row
                  ~stats:[ ("alpha", J.Float 6.0); ("x_fnv", J.String "0") ]
                  "eps=1e-01"));
          case "a vanished x_fnv is drift" 1 baseline
            (with_first (row ~stats:[ ("alpha", J.Float 6.0) ] "eps=1e-01"));
          case "a vanished row is drift" 1 baseline (bench [ List.hd rows ]);
          case "another schema version is unusable" 2 baseline
            (bench ~schema:2 rows);
          case "another mode is unusable" 2 baseline (bench ~mode:"full" rows);
          case "a baseline's metrics object is not compared" 0
            (bench
               ~extra:
                 [
                   ( "metrics",
                     J.Assoc
                       [ ("counters", J.Assoc [ ("rounds.total", J.Int 168) ]) ]
                   );
                 ]
               rows)
            baseline;
        ] );
    ]
