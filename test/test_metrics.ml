(* The observability layer: JSON serializer/parser (the BENCH_*.json
   format), the metrics registry, and the registry's non-interference with
   a sanitized charged pipeline — ingesting a breakdown must never change
   its rounds. *)

module J = Metrics.Json

(* ------------------------------------------------------------- JSON *)

let test_escaping () =
  Alcotest.(check string)
    "quotes, backslash, controls" "a\\\"b\\\\c\\nd\\te\\u0001"
    (J.escape_string "a\"b\\c\nd\te\001");
  Alcotest.(check string)
    "utf-8 passthrough" "caf\xc3\xa9"
    (J.escape_string "caf\xc3\xa9");
  Alcotest.(check string)
    "serialized string" "\"line1\\nline2\""
    (J.to_string ~minify:true (J.String "line1\nline2"))

let bench_like =
  J.Assoc
    [
      ("schema_version", J.Int 1);
      ("experiment", J.String "E1");
      ("title", J.String "quotes \" and \\ backslashes \n newlines");
      ( "series",
        J.List
          [
            J.Assoc
              [
                ("name", J.String "size-and-alpha");
                ("seed", J.Int 3);
                ( "rows",
                  J.List
                    [
                      J.Assoc
                        [
                          ("key", J.String "n=40 u=1");
                          ( "rounds",
                            J.Assoc
                              [
                                ("total", J.Int 84);
                                ( "phases",
                                  J.Assoc
                                    [
                                      ("decompose", J.Int 56);
                                      ("gather", J.Int 28);
                                    ] );
                              ] );
                          ( "stats",
                            J.Assoc
                              [
                                ("alpha", J.Float 5.999172663670298);
                                ("tiny", J.Float 1e-30);
                                ("neg", J.Int (-42));
                                ("flag", J.Bool true);
                                ("missing", J.Null);
                              ] );
                        ];
                    ] );
              ];
          ] );
    ]

let check_roundtrip name doc =
  match J.of_string (J.to_string doc) with
  | Ok v -> Alcotest.(check bool) (name ^ " pretty") true (J.equal doc v)
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let test_roundtrip () =
  check_roundtrip "bench-like document" bench_like;
  (match J.of_string (J.to_string ~minify:true bench_like) with
  | Ok v -> Alcotest.(check bool) "minified" true (J.equal bench_like v)
  | Error e -> Alcotest.fail e);
  (* Floats keep their exact bits through serialize/parse. *)
  List.iter
    (fun f ->
      match J.of_string (J.to_string (J.Float f)) with
      | Ok (J.Float f') ->
        Alcotest.(check bool)
          (Printf.sprintf "float %h survives" f)
          true (f = f')
      | Ok (J.Int i) ->
        Alcotest.(check bool) "integral float" true (float_of_int i = f)
      | _ -> Alcotest.fail "float did not round-trip")
    [ 0.1; 1.5; -3.25; 1e-9; 6.02e23; 5.999172663670298; 0. ]

let test_parser_accepts () =
  (match J.of_string " { \"a\" : [ 1 , 2.5 , null , true ] } " with
  | Ok v ->
    Alcotest.(check bool) "whitespace tolerated" true
      (J.equal v
         (J.Assoc
            [ ("a", J.List [ J.Int 1; J.Float 2.5; J.Null; J.Bool true ]) ]))
  | Error e -> Alcotest.fail e);
  (match J.of_string {|"\u0041\ud83d\ude00"|} with
  | Ok (J.String s) ->
    Alcotest.(check string) "unicode escapes" "A\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "unicode escape parse");
  match J.of_string "-17" with
  | Ok (J.Int -17) -> ()
  | _ -> Alcotest.fail "negative int"

let test_parser_rejects () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s))
    [ "{"; "tru"; "[1 2]"; "\"unterminated"; "{}garbage"; "\"bad \\x\""; "";
      "\"\\u12G4\""; "\"\\u-123\""; "\"\\u00\"" ]

(* Nesting is bounded at 512 levels: a deeper document is an [Error], not
   a stack overflow, however deep it goes. *)
let test_parser_nesting_bound () =
  let nested k = String.make k '[' ^ String.make k ']' in
  Alcotest.(check bool) "512 levels parse" true
    (Result.is_ok (J.of_string (nested 512)));
  let refused what doc =
    match J.of_string doc with
    | Ok _ -> Alcotest.failf "%s parsed" what
    | Error msg ->
      Alcotest.(check bool) (what ^ ": " ^ msg) true
        (String.ends_with ~suffix:"nesting deeper than 512" msg)
  in
  refused "513 levels" (nested 513);
  refused "513 objects" (String.concat "" (List.init 513 (fun _ -> {|{"a":|})));
  refused "100,000 open brackets" (String.make 100_000 '[')

(* The bytes entry point parses a prefix in place, and the tree it returns
   shares nothing with the buffer. *)
let test_parser_of_bytes () =
  let doc = {|{"k":"abc","n":[1,2.5]}|} in
  let buf = Bytes.of_string (doc ^ "garbage past len") in
  let want =
    match J.of_string doc with Ok j -> j | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "the whole buffer does not parse" true
    (match J.of_bytes buf ~len:(Bytes.length buf) with
    | Error _ -> true
    | Ok _ -> false);
  match J.of_bytes buf ~len:(String.length doc) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Bytes.fill buf 0 (Bytes.length buf) 'X';
    Alcotest.(check bool) "tree unchanged after the buffer is reused" true
      (J.equal j want)

(* --------------------------------------------------------- registry *)

let test_counters_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "counter" 42 (Metrics.counter_value c);
  Alcotest.(check int) "same name, same counter" 42
    (Metrics.counter_value (Metrics.counter m "c"));
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Metrics.incr ~by:(-1) c);
  let g = Metrics.gauge m "g" in
  Metrics.set g 2.5;
  Metrics.set g 1.25;
  Alcotest.(check (float 0.)) "gauge last-write-wins" 1.25
    (Metrics.gauge_value g);
  Metrics.reset m;
  Alcotest.(check int) "reset counter" 0 (Metrics.counter_value c);
  Alcotest.(check (float 0.)) "reset gauge" 0. (Metrics.gauge_value g)

let test_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  (* Power-of-two buckets: 0 -> bucket 0, 1 -> 1, {2,3} -> 2, 4..7 -> 3. *)
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 7; 8 ];
  let b = Metrics.histogram_buckets h in
  Alcotest.(check (list int))
    "buckets 0..4" [ 1; 1; 2; 2; 1 ]
    [ b.(0); b.(1); b.(2); b.(3); b.(4) ]

let test_spans () =
  let m = Metrics.create () in
  let s = Metrics.span m "s" in
  Metrics.add_duration s 0.25;
  Metrics.add_duration s 0.75;
  let st = Metrics.span_stats s in
  Alcotest.(check int) "count" 2 st.Metrics.count;
  Alcotest.(check (float 1e-9)) "total" 1.0 st.Metrics.total_s;
  Alcotest.(check (float 1e-9)) "min" 0.25 st.Metrics.min_s;
  Alcotest.(check (float 1e-9)) "max" 0.75 st.Metrics.max_s;
  let r = Metrics.time s (fun () -> 7) in
  Alcotest.(check int) "time returns" 7 r;
  Alcotest.(check int) "time recorded" 3 (Metrics.span_stats s).Metrics.count

let test_disabled_noop () =
  let m = Metrics.disabled in
  Alcotest.(check bool) "disabled" false (Metrics.enabled m);
  let c = Metrics.counter m "c" in
  Metrics.incr ~by:100 c;
  Alcotest.(check int) "counter inert" 0 (Metrics.counter_value c);
  let h = Metrics.histogram m "h" in
  Metrics.observe h 5;
  Alcotest.(check int) "histogram inert" 0
    (Array.fold_left ( + ) 0 (Metrics.histogram_buckets h));
  let s = Metrics.span m "s" in
  Alcotest.(check int) "time still runs f" 9 (Metrics.time s (fun () -> 9));
  Alcotest.(check int) "span inert" 0 (Metrics.span_stats s).Metrics.count;
  Metrics.ingest_phases m ~prefix:"p" [ ("a", 3) ];
  Alcotest.(check bool) "to_json stays empty" true
    (J.equal (Metrics.to_json m)
       (J.Assoc
          [
            ("counters", J.Assoc []);
            ("gauges", J.Assoc []);
            ("histograms", J.Assoc []);
            ("spans", J.Assoc []);
          ]))

let test_ingest_and_json_determinism () =
  let build order =
    let m = Metrics.create () in
    List.iter (fun (p, r) -> Metrics.ingest_phases m ~prefix:"rounds" [ (p, r) ]) order;
    Metrics.set (Metrics.gauge m "g") 1.5;
    m
  in
  let a = build [ ("x", 1); ("y", 2) ] and b = build [ ("y", 2); ("x", 1) ] in
  Alcotest.(check string)
    "serialization independent of insertion order"
    (J.to_string (Metrics.to_json a))
    (J.to_string (Metrics.to_json b));
  let m = Metrics.create () in
  Metrics.ingest_phases m ~prefix:"rounds" [ ("a", 3); ("b", 4) ];
  Metrics.ingest_phases m ~prefix:"rounds" [ ("a", 2) ];
  Alcotest.(check int) "phase accumulates" 5
    (Metrics.counter_value (Metrics.counter m "rounds.a"));
  Alcotest.(check int) "total accumulates" 9
    (Metrics.counter_value (Metrics.counter m "rounds.total"))

(* ------------------------------------------- sanitizer integration *)

(* Registry work under CC_SANITIZE must also leave a charged-layer
   pipeline untouched: E1's seed instance reports the same total with a
   live registry ingesting its breakdown (the bench emission path). *)
let test_ingestion_under_sanitizer_parity () =
  Runtime.Config.with_
    { (Runtime.Config.get ()) with Runtime.Config.sanitize = true }
    (fun () ->
      let m = Metrics.create () in
      let r = Sparsify.Spectral.sparsify (Gen.connected_gnp ~seed:3L 40 0.5) in
      Metrics.ingest_phases m ~prefix:"rounds" r.Sparsify.Spectral.phase_rounds;
      Alcotest.(check int) "E1 seed parity with live registry" 84
        r.Sparsify.Spectral.rounds;
      Alcotest.(check int) "registry saw the whole breakdown" 84
        (Metrics.counter_value (Metrics.counter m "rounds.total")))

let suite =
  [
    Alcotest.test_case "json escaping" `Quick test_escaping;
    Alcotest.test_case "json round-trip" `Quick test_roundtrip;
    Alcotest.test_case "json parser accepts" `Quick test_parser_accepts;
    Alcotest.test_case "json parser rejects" `Quick test_parser_rejects;
    Alcotest.test_case "json parser nesting bound" `Quick
      test_parser_nesting_bound;
    Alcotest.test_case "json parser of_bytes" `Quick test_parser_of_bytes;
    Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "spans" `Quick test_spans;
    Alcotest.test_case "disabled registry is a no-op" `Quick
      test_disabled_noop;
    Alcotest.test_case "ingest_phases and deterministic json" `Quick
      test_ingest_and_json_determinism;
    Alcotest.test_case "ingestion under sanitizer keeps E1 parity" `Quick
      test_ingestion_under_sanitizer_parity;
  ]
