(* The Broadcast Congested Clique kernel (FV22, arXiv:2205.12059). One
   round gives every node ONE message of [width] words, heard by all n
   nodes; per-destination distinct payloads are a model violation, not a
   bandwidth question, so they raise [Multi_payload] rather than
   [Bandwidth_exceeded]. Delivery is deliberately simple — a shared
   src-ascending inbox replicated to every node — because the model says
   every node's inbox IS the global round transcript. *)

module Mailbox = Runtime.Mailbox
module Cost = Runtime.Cost

type t = {
  n : int;
  mutable rounds : int;
  mutable words_sent : int;
  mutable exchanges : int;
  mutable collapsed : int;
}

exception Bandwidth_exceeded = Mailbox.Bandwidth_exceeded

exception Multi_payload of { src : int; phase : string; distinct : int }

let () =
  Printexc.register_printer (function
    | Multi_payload { src; phase; distinct } ->
      Some
        (Printf.sprintf
           "Clique.Broadcast.Multi_payload(node %d ships %d distinct \
            payloads in phase %S; one payload per source per round)"
           src distinct phase)
    | _ -> None)

let create n =
  if n <= 0 then invalid_arg "Broadcast.create: need n > 0";
  { n; rounds = 0; words_sent = 0; exchanges = 0; collapsed = 0 }

let n t = t.n

let rounds t = t.rounds

let words_sent t = t.words_sent

let recovery_rounds _ = 0

let default_width = 2

let unicast = false

(* Collapse one source's outbox to its single on-air payload. Checks run
   in the same order as the sanitizer's: width first (an oversized payload
   is a width error even when it is also duplicated), distinctness
   second. *)
let collapse t ~width ~src msgs =
  match msgs with
  | [] -> None
  | (_, first) :: _ ->
    let distinct = ref [] in
    List.iter
      (fun (dst, payload) ->
        if dst < 0 || dst >= t.n then
          invalid_arg
            (Printf.sprintf "Broadcast.exchange: destination %d out of range"
               dst);
        let w = Array.length payload in
        if w > width then
          Mailbox.bandwidth_exceeded ~src ~dst:(-1) ~words:w ~width;
        if not (List.exists (fun p -> p = payload) !distinct) then
          distinct := payload :: !distinct)
      msgs;
    (match !distinct with
    | [] | [ _ ] -> ()
    | ds ->
      raise
        (Multi_payload
           {
             src;
             phase = Mailbox.current_context ();
             distinct = List.length ds;
           }));
    t.collapsed <- t.collapsed + (List.length msgs - 1);
    Some first

let exchange ?(width = default_width) t outboxes =
  if Array.length outboxes <> t.n then
    invalid_arg "Broadcast.exchange: outboxes array length mismatch";
  (* The round's air: at most one (src, payload) per source, src-ascending
     because we scan sources in order. *)
  let air = ref [] in
  for src = t.n - 1 downto 0 do
    match collapse t ~width ~src outboxes.(src) with
    | None -> ()
    | Some payload ->
      air := (src, payload) :: !air;
      t.words_sent <- t.words_sent + ((t.n - 1) * Array.length payload)
  done;
  let air = !air in
  t.exchanges <- t.exchanges + 1;
  t.rounds <- t.rounds + 1;
  (* Every node hears the whole air, its own broadcast included; the list
     is immutable so all n slots can share it. *)
  Array.make t.n air

(* Routing an arbitrary (src, dst, payload) multiset over broadcasts:
   each source puts its messages on the air one per round, so the call
   takes [max_v #messages(v)] rounds and every payload is heard by all
   n - 1 others. The returned inboxes keep the unicast route contract —
   only the addressed destination consumes each message — so analytic
   callers behave identically; only the cost differs. *)
let route ?(width = default_width) t msgs =
  let inboxes = Array.make t.n [] in
  let per_src = Array.make t.n 0 in
  List.iter
    (fun (src, dst, payload) ->
      if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
        invalid_arg "Broadcast.route: endpoint out of range";
      let w = Array.length payload in
      if w > width then
        Mailbox.bandwidth_exceeded ~src ~dst:(-1) ~words:w ~width;
      per_src.(src) <- per_src.(src) + 1;
      t.words_sent <- t.words_sent + ((t.n - 1) * w);
      inboxes.(dst) <- (src, payload) :: inboxes.(dst))
    msgs;
  Array.iteri (fun dst l -> inboxes.(dst) <- List.rev l) inboxes;
  let batches = Array.fold_left max 0 per_src in
  t.rounds <- t.rounds + max 1 batches;
  inboxes

(* [broadcast] is the model's native operation: unchanged semantics and
   cost relative to the unicast kernels. *)
let broadcast ?(width = default_width) t values =
  let view, words = Mailbox.broadcast ~n:t.n ~width values in
  t.words_sent <- t.words_sent + words;
  t.rounds <- t.rounds + Cost.broadcast_rounds;
  view

let stats t =
  [ ("kernel.bcast.exchanges", t.exchanges);
    ("kernel.bcast.collapsed", t.collapsed) ]
