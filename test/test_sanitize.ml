(* Unit tests for the dynamic sanitizer mode of [Runtime.Make], plus the
   ledger primitive it leans on: Cost.charge's rejection of negative
   rounds. *)

module K = Clique.Kernel
module San = Runtime.Sanitize

let violation kind f =
  try
    ignore (f ());
    None
  with San.Violation { phase; kind = k; detail } when k = kind ->
    Some (phase, detail)

(* ------------------------------------------------------- width checking *)

let test_width_violation_names_phase () =
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  match
    violation "width" (fun () ->
        K.On_sim.with_phase rt "burst" (fun () ->
            K.On_sim.exchange rt [| [ (1, [| 1; 2; 3 |]) ]; []; [] |]))
  with
  | None -> Alcotest.fail "oversized exchange must trip the sanitizer"
  | Some (phase, detail) ->
    Alcotest.(check string) "offending phase is reported" "burst" phase;
    Alcotest.(check bool) "detail names the link" true
      (String.length detail > 0)

let test_width_aggregates_per_link () =
  (* Three 1-word messages to the same destination: each payload fits the
     2-word bound, their per-link sum does not. *)
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  Alcotest.(check bool) "per-link aggregation" true
    (violation "width" (fun () ->
         K.On_sim.exchange rt
           [| [ (1, [| 1 |]); (1, [| 2 |]); (1, [| 3 |]) ]; []; [] |])
    <> None)

let test_width_route_and_broadcast () =
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  Alcotest.(check bool) "wide routed payload" true
    (violation "width" (fun () ->
         K.On_sim.route rt [ (0, 1, [| 1; 2; 3 |]) ])
    <> None);
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  Alcotest.(check bool) "wide broadcast payload" true
    (violation "width" (fun () ->
         K.On_sim.broadcast rt [| [| 1; 2; 3 |]; [| 0 |]; [| 0 |] |])
    <> None);
  (* An explicit wider width is the sanctioned way to send more. *)
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  ignore (K.On_sim.route ~width:3 rt [ (0, 1, [| 1; 2; 3 |]) ])

(* ----------------------------------------- duplicate outbox destinations *)

let test_duplicate_dst_flagged () =
  (* Two width-respecting messages from one sender to the same destination:
     the kernel would silently concatenate them into one round, so the
     sanitizer reports the outbox as malformed instead. *)
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  match
    violation "duplicate-dst" (fun () ->
        K.On_sim.with_phase rt "shift" (fun () ->
            K.On_sim.exchange rt [| [ (1, [| 7 |]); (1, [| 8 |]) ]; []; [] |]))
  with
  | None -> Alcotest.fail "duplicate (dst, _) entries must trip the sanitizer"
  | Some (phase, detail) ->
    Alcotest.(check string) "offending phase" "shift" phase;
    Alcotest.(check bool) "detail names sender and destination" true
      (String.length detail > 0)

let test_duplicate_dst_width_wins () =
  (* When the duplicates also blow the width bound, the width violation
     keeps firing first (regression pin for the check ordering). *)
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  Alcotest.(check bool) "width reported before duplicate-dst" true
    (violation "width" (fun () ->
         K.On_sim.exchange rt
           [| [ (1, [| 1 |]); (1, [| 2 |]); (1, [| 3 |]) ]; []; [] |])
    <> None);
  (* Distinct destinations stay legal. *)
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  ignore (K.On_sim.exchange rt [| [ (1, [| 1 |]); (2, [| 2 |]) ]; []; [] |])

(* ------------------------------------------------ broadcast width rule *)

let test_broadcast_multi_payload_flagged () =
  (* The planted violation of the broadcast model: one source ships two
     distinct payloads in a single round. The sanitizer must reject it
     before the transport runs and name the offending phase. *)
  let rt = K.On_bcast.create ~sanitize:true (Clique.Broadcast.create 3) in
  match
    violation "broadcast-width" (fun () ->
        K.On_bcast.with_phase rt "fanout" (fun () ->
            K.On_bcast.exchange rt [| [ (1, [| 7 |]); (2, [| 8 |]) ]; []; [] |]))
  with
  | None -> Alcotest.fail "two distinct payloads per src must trip the sanitizer"
  | Some (phase, detail) ->
    Alcotest.(check string) "offending phase is reported" "fanout" phase;
    Alcotest.(check bool) "detail names the source and the rule" true
      (String.length detail > 0)

let test_broadcast_width_wins_and_legal_fanout () =
  (* An oversized payload reports "width" even when the outbox is also
     multi-payload (check ordering mirrors the unicast sanitizer)... *)
  let rt = K.On_bcast.create ~sanitize:true (Clique.Broadcast.create 3) in
  Alcotest.(check bool) "width reported before broadcast-width" true
    (violation "width" (fun () ->
         K.On_bcast.exchange rt
           [| [ (1, [| 1; 2; 3 |]); (2, [| 9 |]) ]; []; [] |])
    <> None);
  (* ...and a same-payload fanout is exactly what the model allows. *)
  let rt = K.On_bcast.create ~sanitize:true (Clique.Broadcast.create 3) in
  ignore (K.On_bcast.exchange rt [| [ (1, [| 5 |]); (2, [| 5 |]) ]; []; [] |]);
  Alcotest.(check int) "legal fanout is one round" 1 (K.On_bcast.rounds rt)

let test_model_selector () =
  let module Mo = Runtime.Model in
  Fun.protect
    ~finally:(fun () -> Mo.set_default None)
    (fun () ->
      Alcotest.(check bool) "broadcast parses" true
        (Mo.of_string "Broadcast" = Some Mo.Broadcast
        && Mo.of_string "bcast" = Some Mo.Broadcast);
      Alcotest.(check bool) "unicast parses" true
        (Mo.of_string "unicast" = Some Mo.Unicast);
      Alcotest.(check bool) "junk rejected" true (Mo.of_string "???" = None);
      Mo.set_default (Some Mo.Broadcast);
      Alcotest.(check string) "forced default wins" "broadcast"
        (Mo.name (Mo.default ()));
      Mo.set_default None)

(* ---------------------------------------------------- phase attribution *)

(* One measured round: node 0 sends a word to node 1. *)
let ping rt = ignore (K.On_sim.exchange rt [| [ (1, [| 1 |]) ]; []; [] |])

let test_phase_attribution () =
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  (* Setup rounds under "main" are fine before any named phase... *)
  ping rt;
  K.On_sim.with_phase rt "solve" (fun () -> ping rt);
  (* ...but once a named phase has run, unattributed rounds are a bug. *)
  match violation "phase-attribution" (fun () -> ping rt) with
  | None -> Alcotest.fail "post-setup main-phase rounds must be flagged"
  | Some (phase, _) -> Alcotest.(check string) "phase" "main" phase

let test_phase_attribution_off_when_unsanitized () =
  (* [~sanitize:false] must win even under an ambient CC_SANITIZE=1. *)
  let rt = K.On_sim.create ~sanitize:false (Clique.Sim.create 3) in
  K.On_sim.with_phase rt "solve" (fun () -> ping rt);
  ping rt;
  Alcotest.(check int) "no sanitizer, no violation" 2 (K.rounds rt);
  Alcotest.(check bool) "not sanitized" false (K.On_sim.sanitized rt)

(* ---------------------------------------------------------- ledger drift *)

let test_ledger_drift () =
  let sim = Clique.Sim.create 3 in
  let rt = K.On_sim.create ~sanitize:true sim in
  K.On_sim.with_phase rt "p" (fun () -> ping rt);
  (* Bypass the runtime: the transport moves, the ledger does not. *)
  ignore (Clique.Sim.broadcast sim [| [| 1 |]; [| 2 |]; [| 3 |] |]);
  Alcotest.(check bool) "bypassed rounds detected at the next event" true
    (violation "ledger-drift" (fun () ->
         K.On_sim.with_phase rt "p" (fun () -> ping rt))
    <> None)

let test_drift_baseline_over_used_transport () =
  (* A runtime created over a transport that already has rounds on the
     clock must not see phantom drift: the baseline is snapshotted. *)
  let sim = Clique.Sim.create 3 in
  ignore (Clique.Sim.exchange sim [| [ (2, [| 4 |]) ]; []; [] |]);
  ignore (Clique.Sim.broadcast sim [| [| 1 |]; [| 2 |]; [| 3 |] |]);
  let rt = K.On_sim.create ~sanitize:true sim in
  K.On_sim.with_phase rt "p" (fun () -> ping rt);
  Alcotest.(check int) "ledger counts only its own rounds" 1 (K.rounds rt);
  Alcotest.(check int) "transport counts every round" 3
    (Clique.Sim.rounds sim)

(* ------------------------------------------------- enabling and default *)

let test_set_default () =
  Fun.protect
    ~finally:(fun () -> San.set_default None)
    (fun () ->
      San.set_default (Some true);
      let rt = K.clique 2 in
      Alcotest.(check bool) "default on" true (K.On_sim.sanitized rt);
      Alcotest.(check bool) "sanitizer exposed" true
        (K.On_sim.sanitizer rt <> None);
      San.set_default (Some false);
      let rt = K.clique 2 in
      Alcotest.(check bool) "default off" false (K.On_sim.sanitized rt);
      (* An explicit argument beats the ambient default. *)
      let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 2) in
      Alcotest.(check bool) "explicit wins" true (K.On_sim.sanitized rt))

(* ------------------------------------------------------------ transcript *)

let test_transcript_distinguishes_runs () =
  let run values =
    let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 2) in
    K.On_sim.with_phase rt "x" (fun () ->
        ignore (K.On_sim.exchange rt [| [ (1, [| 1 |]) ]; [] |]));
    K.On_sim.with_phase rt "y" (fun () ->
        ignore (K.On_sim.broadcast rt values));
    match K.On_sim.sanitizer rt with
    | Some s -> San.transcript s
    | None -> Alcotest.fail "sanitizer expected"
  in
  let a = run [| [| 1 |]; [| 2 |] |] in
  let a' = run [| [| 1 |]; [| 2 |] |] in
  let b = run [| [| 1; 5 |]; [| 2 |] |] in
  let c = run [| [| 7 |]; [| 2 |] |] in
  Alcotest.check Alcotest.int64 "same run, same shape" a.San.shape_hash
    a'.San.shape_hash;
  Alcotest.check Alcotest.int64 "same run, same content" a.San.content_hash
    a'.San.content_hash;
  Alcotest.(check int) "events counted" 2 a.San.events;
  Alcotest.(check bool) "different sizes, different shape" true
    (a.San.shape_hash <> b.San.shape_hash);
  Alcotest.check Alcotest.int64 "same sizes, same shape" a.San.shape_hash
    c.San.shape_hash;
  Alcotest.(check bool) "different words, different content" true
    (a.San.content_hash <> c.San.content_hash)

(* ----------------------------------------------- cost charge validation *)

let test_cost_negative_charge_rejected () =
  let c = Runtime.Cost.create () in
  Alcotest.(check bool) "negative rounds rejected" true
    (try
       Runtime.Cost.charge c ~phase:"x" (-1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "ledger untouched by the rejected charge" 0
    (Runtime.Cost.rounds c);
  Runtime.Cost.charge c ~phase:"x" 0;
  Alcotest.(check int) "zero rounds is a valid charge" 0
    (Runtime.Cost.rounds c)

let suite =
  [
    Alcotest.test_case "width violation names the phase" `Quick
      test_width_violation_names_phase;
    Alcotest.test_case "width aggregates per link" `Quick
      test_width_aggregates_per_link;
    Alcotest.test_case "width on route and broadcast" `Quick
      test_width_route_and_broadcast;
    Alcotest.test_case "duplicate dst flagged" `Quick
      test_duplicate_dst_flagged;
    Alcotest.test_case "width beats duplicate-dst; distinct dst legal" `Quick
      test_duplicate_dst_width_wins;
    Alcotest.test_case "broadcast multi-payload flagged" `Quick
      test_broadcast_multi_payload_flagged;
    Alcotest.test_case "broadcast width ordering; same-payload fanout legal"
      `Quick test_broadcast_width_wins_and_legal_fanout;
    Alcotest.test_case "CC_MODEL selector" `Quick test_model_selector;
    Alcotest.test_case "phase attribution" `Quick test_phase_attribution;
    Alcotest.test_case "no checks when unsanitized" `Quick
      test_phase_attribution_off_when_unsanitized;
    Alcotest.test_case "ledger drift detection" `Quick test_ledger_drift;
    Alcotest.test_case "drift baseline on used transport" `Quick
      test_drift_baseline_over_used_transport;
    Alcotest.test_case "set_default" `Quick test_set_default;
    Alcotest.test_case "transcript distinguishes runs" `Quick
      test_transcript_distinguishes_runs;
    Alcotest.test_case "cost rejects negative rounds" `Quick
      test_cost_negative_charge_rejected;
  ]
