(* The verify-and-retry driver. Recovery decisions live here, above the
   charged algorithm layers (cc_lint rule L7 enforces that none of them
   catches Fault_detected or calls Recover.run themselves): a computation
   is run, its output is put to its certified checker, and on rejection it
   is re-executed with the extra rounds charged to the dedicated
   "recovery" phase — so the resilience cost is a visible ledger line, and
   an exhausted budget raises a machine-readable Fault_detected instead of
   ever returning an uncertified answer. *)

exception
  Fault_detected of { workload : string; attempts : int; cause : string }

let () =
  Printexc.register_printer (function
    | Fault_detected { workload; attempts; cause } ->
      Some
        (Printf.sprintf "Fault.Recover.Fault_detected(%s after %d attempts: %s)"
           workload attempts cause)
    | _ -> None)

let recovery_phase = Runtime.Cost.recovery_phase

type 'a outcome = { value : 'a; attempts : int; recovered : bool }

(* An attempt fails by checker rejection or by raising: under injected
   corruption a workload may legitimately trip input validation (e.g.
   Graph.create on a mangled edge), and that must count as a detected
   fault, not a crash of the driver. Genuine resource exhaustion is
   never swallowed. *)
let attempt ~check f =
  match f () with
  | exception Out_of_memory -> raise Out_of_memory
  | exception Stack_overflow -> raise Stack_overflow
  | exception e ->
    Error (Printf.sprintf "attempt raised %s" (Printexc.to_string e))
  | value -> (
    match check value with
    | Check.Pass -> Ok value
    | Check.Fail _ as v -> Error (Check.to_string v))

(* The one retry loop. [in_retry] wraps every re-execution: the identity
   for a plain computation, the recovery phase for one on a runtime. The
   attempts it made are the whole account: [outcome.attempts] on success,
   [Fault_detected.attempts] on exhaustion. *)
let loop ~in_retry ?(retries = 2) ~name ~check f =
  if retries < 0 then invalid_arg "Recover.run: retries must be >= 0";
  let rec go k last =
    if k > retries + 1 then
      raise (Fault_detected { workload = name; attempts = k - 1; cause = last })
    else
      let result =
        if k = 1 then attempt ~check f
        else in_retry (fun () -> attempt ~check f)
      in
      match result with
      | Ok value -> { value; attempts = k; recovered = k > 1 }
      | Error cause -> go (k + 1) cause
  in
  go 1 "never attempted"

let run ?retries ~name ~check f =
  loop ~in_retry:(fun g -> g ()) ?retries ~name ~check f

module Make (R : Runtime.S) = struct
  (* The first attempt is ordinary work in the caller's phase; every
     re-execution is charged to the recovery phase. *)
  let run ?retries ~name rt ~check f =
    loop ~in_retry:(R.with_phase rt recovery_phase) ?retries ~name ~check f
end
