(* [Metrics.Json]: the serializer and parser of the BENCH_*.json
   format. *)

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

let suite =
  [
    Alcotest.test_case "json escaping" `Quick test_escaping;
    Alcotest.test_case "json round-trip" `Quick test_roundtrip;
    Alcotest.test_case "json parser accepts" `Quick test_parser_accepts;
    Alcotest.test_case "json parser rejects" `Quick test_parser_rejects;
    Alcotest.test_case "json parser nesting bound" `Quick
      test_parser_nesting_bound;
    Alcotest.test_case "json parser of_bytes" `Quick test_parser_of_bytes;
  ]
