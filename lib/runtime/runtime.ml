module Cost = Cost
module Mailbox = Mailbox
module Sanitize = Sanitize
module Arena = Arena
module Pool = Pool
module Shard = Shard
module Model = Model

module type TRANSPORT = Transport.S

module type S = sig
  type transport

  type t

  val create : ?sanitize:bool -> ?domains:int -> transport -> t

  val transport : t -> transport

  val n : t -> int

  val sanitized : t -> bool

  val sanitizer : t -> Sanitize.t option

  val rounds : t -> int

  val words : t -> int

  val phases : t -> (string * int) list

  val phase_rounds : t -> string -> int

  val with_phase : t -> string -> (unit -> 'a) -> 'a

  val exchange :
    ?width:int ->
    t ->
    (int * int array) list array ->
    (int * int array) list array

  val exchange_map :
    ?width:int ->
    t ->
    (int -> (int * int array) list) ->
    (int * int array) list array

  val route :
    ?width:int ->
    t ->
    (int * int * int array) list ->
    (int * int array) list array

  val broadcast : ?width:int -> t -> int array array -> int array array
end

module Make (T : TRANSPORT) = struct
  type transport = T.t

  type t = {
    tr : T.t;
    ledger : Cost.t;
    san : Sanitize.t option;
    (* Rounds already on the transport when this runtime was created; the
       drift check compares the ledger against the counter's movement. *)
    base_rounds : int;
    pool : Pool.t;
    mutable phase : string;
    mutable words : int;
  }

  let create ?sanitize ?domains tr =
    let sanitize =
      match sanitize with Some b -> b | None -> Sanitize.enabled_default ()
    in
    let domains =
      match domains with Some d -> max 1 d | None -> Pool.default_domains ()
    in
    {
      tr;
      ledger = Cost.create ();
      san = (if sanitize then Some (Sanitize.create ()) else None);
      base_rounds = T.rounds tr;
      pool = Pool.get domains;
      phase = Sanitize.default_phase;
      words = 0;
    }

  let transport t = t.tr

  let n t = T.n t.tr

  let sanitized t = t.san <> None

  let sanitizer t = t.san

  let rounds t = Cost.rounds t.ledger

  let words t = t.words

  let phases t = Cost.phases t.ledger

  let phase_rounds t phase = Cost.phase_rounds t.ledger phase

  let with_phase t phase f =
    let saved = t.phase in
    t.phase <- phase;
    Fun.protect ~finally:(fun () -> t.phase <- saved) f

  (* Every communication call is measured against the transport's own
     counters and the delta is charged straight into the ledger. The
     mailbox context is set for the duration so delivery errors (and fault
     schedules scoped to a phase) know where in the pipeline they fired.
     Rounds the transport spent replaying after a worker death are split
     off into the "recovery" ledger phase — the algorithm's own phase
     keeps its deterministic cost, and recovery overhead stays visible. *)
  let wrap t ~op ~width ~event f =
    let r0 = T.rounds t.tr
    and w0 = T.words_sent t.tr
    and rec0 = T.recovery_rounds t.tr in
    Mailbox.set_context t.phase;
    let result =
      Fun.protect ~finally:(fun () -> Mailbox.set_context "main") f
    in
    let rounds = T.rounds t.tr - r0
    and words = T.words_sent t.tr - w0 in
    let recovered = min (T.recovery_rounds t.tr - rec0) rounds in
    Cost.charge t.ledger ~phase:t.phase (rounds - recovered);
    if recovered > 0 then
      Cost.charge t.ledger ~phase:Cost.recovery_phase recovered;
    t.words <- t.words + words;
    (match t.san with
    | None -> ()
    | Some s ->
      let sizes, content = event () in
      Sanitize.record s ~phase:t.phase ~op ~width ~rounds ~words ~sizes
        ~content;
      Sanitize.check_phase s ~phase:t.phase ~op ~rounds;
      Sanitize.check_drift ~phase:t.phase
        ~ledger:(Cost.rounds t.ledger)
        ~transport:(T.rounds t.tr - t.base_rounds));
    result

  let effective_width width =
    match width with Some w -> w | None -> T.default_width

  let exchange ?width t outboxes =
    let w = effective_width width in
    if t.san <> None then
      if T.unicast then Sanitize.check_exchange ~phase:t.phase ~width:w outboxes
      else Sanitize.check_exchange_broadcast ~phase:t.phase ~width:w outboxes;
    wrap t ~op:Sanitize.Exchange ~width:w
      ~event:(fun () -> Sanitize.exchange_event outboxes)
      (fun () -> T.exchange ?width t.tr outboxes)

  (* Per-node outbox construction fanned over the domain pool. Each chunk
     writes only its own slots of [out], and the chunk partition is fixed
     by (size, n) alone, so the merged outbox array — and with it rounds,
     words, and sanitizer transcripts — is bit-identical to a sequential
     run. *)
  let exchange_map ?width t f =
    let n = T.n t.tr in
    let out = Array.make n [] in
    let fill lo hi =
      for v = lo to hi - 1 do
        out.(v) <- f v
      done
    in
    if n < Pool.size t.pool then fill 0 n else Pool.run t.pool ~n fill;
    exchange ?width t out

  let route ?width t msgs =
    let w = effective_width width in
    if t.san <> None then Sanitize.check_route ~phase:t.phase ~width:w msgs;
    wrap t ~op:Sanitize.Route ~width:w
      ~event:(fun () -> Sanitize.route_event msgs)
      (fun () -> T.route ?width t.tr msgs)

  let broadcast ?width t values =
    let w = effective_width width in
    if t.san <> None then
      Sanitize.check_broadcast ~phase:t.phase ~width:w values;
    wrap t ~op:Sanitize.Broadcast ~width:w
      ~event:(fun () -> Sanitize.broadcast_event values)
      (fun () -> T.broadcast ?width t.tr values)
end
