(* Dynamic model-compliance sanitizer. When enabled on a runtime
   (explicitly or via CC_SANITIZE=1), every communication call is
   (1) pre-checked against the per-link width bound with the
   offending phase in the error, (2) folded into two running FNV-1a
   transcript hashes, and (3) cross-checked for drift between the transport
   round counter and the Cost ledger and for rounds leaking into the
   default "main" phase after setup. *)

exception Violation of { phase : string; kind : string; detail : string }

let () =
  Printexc.register_printer (function
    | Violation { phase; kind; detail } ->
      Some
        (Printf.sprintf "Runtime.Sanitize.Violation(%s in phase %S: %s)" kind
           phase detail)
    | _ -> None)

let violation ~phase ~kind fmt =
  Printf.ksprintf
    (fun detail -> raise (Violation { phase; kind; detail }))
    fmt

(* ------------------------------------------------------- enabling logic *)

let enabled_default () = (Config.get ()).sanitize

(* ------------------------------------------------------------ FNV-1a 64 *)

(* One shared fold for transcripts and frame checksums: [Wire.Fnv] keeps
   the historical encodings (ints as 8 sign-extended LE bytes, strings
   0xff-terminated), so transcript hashes are unchanged by the move. *)

let fnv_offset = Wire.Fnv.offset

let hash_int = Wire.Fnv.add_int

let hash_string = Wire.Fnv.add_string

let hash_ints = Wire.Fnv.add_ints

(* ------------------------------------------------------------ the state *)

type op = Exchange | Route | Broadcast

let op_code = function Exchange -> 1 | Route -> 2 | Broadcast -> 3

let op_name = function
  | Exchange -> "exchange"
  | Route -> "route"
  | Broadcast -> "broadcast"

type transcript = { events : int; shape_hash : int64; content_hash : int64 }

type t = {
  mutable n_events : int;
  mutable shape : int64;
  mutable content : int64;
  mutable named_phase_seen : bool;
}

let create () =
  {
    n_events = 0;
    shape = fnv_offset;
    content = fnv_offset;
    named_phase_seen = false;
  }

let transcript t =
  { events = t.n_events; shape_hash = t.shape; content_hash = t.content }

let default_phase = "main"

(* ---------------------------------------------------- event description *)

(* [sizes] is the multiset of payload widths (sorted before hashing, so the
   shape hash is invariant under node-identifier permutations: a relabelled
   run of a label-oblivious deterministic algorithm sends the same multiset
   of message sizes in every round). [content] additionally pins endpoints
   and payload words, so it is the run-twice bit-identity check. *)

let exchange_event outboxes =
  let sizes = ref [] and content = ref [] in
  Array.iteri
    (fun src msgs ->
      List.iter
        (fun (dst, payload) ->
          let w = Array.length payload in
          sizes := w :: !sizes;
          content := src :: dst :: w :: Array.to_list payload @ !content)
        msgs)
    outboxes;
  (!sizes, !content)

let route_event msgs =
  let sizes = ref [] and content = ref [] in
  List.iter
    (fun (src, dst, payload) ->
      let w = Array.length payload in
      sizes := w :: !sizes;
      content := src :: dst :: w :: Array.to_list payload @ !content)
    msgs;
  (!sizes, !content)

let broadcast_event values =
  let sizes = ref [] and content = ref [] in
  Array.iteri
    (fun v payload ->
      let w = Array.length payload in
      sizes := w :: !sizes;
      content := v :: w :: Array.to_list payload @ !content)
    values;
  (!sizes, !content)

let record t ~phase ~op ~width ~rounds ~words ~sizes ~content =
  t.n_events <- t.n_events + 1;
  let shape = t.shape in
  let shape = hash_string shape phase in
  let shape = hash_int shape (op_code op) in
  let shape = hash_int shape width in
  let shape = hash_int shape rounds in
  let shape = hash_int shape words in
  let shape = hash_int shape (List.length sizes) in
  t.shape <- hash_ints shape (List.sort compare sizes);
  let c = t.content in
  let c = hash_string c phase in
  let c = hash_int c (op_code op) in
  let c = hash_int c width in
  let c = hash_int c rounds in
  let c = hash_int c words in
  t.content <- hash_ints c content

(* -------------------------------------------------------------- checks *)

let check_exchange ~phase ~width outboxes =
  let pair_words = Hashtbl.create 64 in
  Array.iteri
    (fun src msgs ->
      List.iter
        (fun (dst, payload) ->
          let w = Array.length payload in
          let key = (src, dst) in
          let cur =
            match Hashtbl.find_opt pair_words key with Some c -> c | None -> 0
          in
          let total = cur + w in
          if total > width then
            violation ~phase ~kind:"width"
              "exchange sends %d words over link (%d,%d), width bound is %d"
              total src dst width;
          Hashtbl.replace pair_words key total)
        msgs)
    outboxes;
  (* Second pass: a sender listing the same destination twice in one
     outbox is almost always a program bug (the kernel would silently
     concatenate the payloads into one round). Runs after the width pass so
     an outbox that is both duplicated and oversized reports the width
     violation first, as it always has. *)
  Array.iteri
    (fun src msgs ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (dst, _) ->
          if Hashtbl.mem seen dst then
            violation ~phase ~kind:"duplicate-dst"
              "exchange outbox of node %d lists destination %d more than \
               once; merge the payloads into one message"
              src dst;
          Hashtbl.add seen dst ())
        msgs)
    outboxes

let check_exchange_broadcast ~phase ~width outboxes =
  (* Width pass first, mirroring [check_exchange]: an outbox that is both
     oversized and multi-payload reports the width violation. *)
  Array.iteri
    (fun src msgs ->
      List.iter
        (fun (_, payload) ->
          let w = Array.length payload in
          if w > width then
            violation ~phase ~kind:"width"
              "broadcast-model payload of %d words at node %d exceeds width \
               %d"
              w src width)
        msgs)
    outboxes;
  (* Broadcast width rule: one distinct payload per source per round. A
     source may list many destinations (or repeat one), but every listed
     payload must be the same words — that is the message everyone hears. *)
  Array.iteri
    (fun src msgs ->
      let distinct = ref [] in
      List.iter
        (fun (_, payload) ->
          if not (List.exists (fun p -> p = payload) !distinct) then
            distinct := payload :: !distinct)
        msgs;
      let k = List.length !distinct in
      if k > 1 then
        violation ~phase ~kind:"broadcast-width"
          "node %d ships %d distinct payloads in one round; the broadcast \
           model allows one payload per source per round"
          src k)
    outboxes

let check_route ~phase ~width msgs =
  List.iter
    (fun (src, dst, payload) ->
      let w = Array.length payload in
      if w > width then
        violation ~phase ~kind:"width"
          "routed payload of %d words from %d to %d exceeds width %d" w src
          dst width)
    msgs

let check_broadcast ~phase ~width values =
  Array.iteri
    (fun v payload ->
      let w = Array.length payload in
      if w > width then
        violation ~phase ~kind:"width"
          "broadcast payload of %d words at node %d exceeds width %d" w v
          width)
    values

let check_phase t ~phase ~op ~rounds =
  if rounds > 0 then begin
    if phase = default_phase && t.named_phase_seen then
      violation ~phase ~kind:"phase-attribution"
        "%d rounds (%s) charged under the default %S phase after setup; \
         wrap the call in with_phase"
        rounds (op_name op) default_phase
    else if phase <> default_phase then t.named_phase_seen <- true
  end

let check_drift ~phase ~ledger ~transport =
  if ledger <> transport then
    violation ~phase ~kind:"ledger-drift"
      "cost ledger has %d rounds but the transport counter moved %d; some \
       rounds bypassed the runtime"
      ledger transport
