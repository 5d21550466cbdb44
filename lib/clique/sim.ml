type kernel = Arena | Legacy | Shard

type engine =
  | Local of Runtime.Arena.t option  (** [Some] = arena, [None] = legacy *)
  | Sharded of Socket.t

type t = {
  n : int;
  engine : engine;
  mutable rounds : int;
  mutable words_sent : int;
}

exception Bandwidth_exceeded = Runtime.Mailbox.Bandwidth_exceeded

let forced_kernel : kernel option ref = ref None

let set_default_kernel k = forced_kernel := k

let default_kernel () =
  match !forced_kernel with
  | Some k -> k
  | None -> if Runtime.Shard.default_shards () > 1 then Shard else Arena

let create ?kernel n =
  if n <= 0 then invalid_arg "Sim.create: need n > 0";
  let kernel =
    match kernel with Some k -> k | None -> default_kernel ()
  in
  let engine =
    match kernel with
    | Arena -> Local (Some (Runtime.Arena.create ~n ()))
    | Legacy -> Local None
    | Shard -> Sharded (Socket.create n)
  in
  { n; engine; rounds = 0; words_sent = 0 }

let n t = t.n

let rounds t =
  match t.engine with Sharded s -> Socket.rounds s | Local _ -> t.rounds

let words_sent t =
  match t.engine with Sharded s -> Socket.words_sent s | Local _ -> t.words_sent

let recovery_rounds t =
  match t.engine with Sharded s -> Socket.recovery_rounds s | Local _ -> 0

let default_width = 2

let unicast = true

let deliver t ~width outboxes =
  match t.engine with
  | Local (Some arena) -> Runtime.Arena.deliver arena ~width outboxes
  | Local None -> Runtime.Mailbox.deliver ~n:t.n ~width outboxes
  | Sharded _ -> assert false

let exchange ?(width = default_width) t outboxes =
  match t.engine with
  | Sharded s -> Socket.exchange ~width s outboxes
  | Local _ ->
    let inboxes, words = deliver t ~width outboxes in
    t.words_sent <- t.words_sent + words;
    t.rounds <- t.rounds + 1;
    inboxes

let route ?(width = default_width) t msgs =
  match t.engine with
  | Sharded s -> Socket.route ~width s msgs
  | Local _ ->
    let inboxes, words, batches = Runtime.Mailbox.route ~n:t.n ~width msgs in
    t.words_sent <- t.words_sent + words;
    t.rounds <- t.rounds + (batches * Runtime.Cost.lenzen_routing_rounds);
    inboxes

let broadcast ?(width = default_width) t values =
  match t.engine with
  | Sharded s -> Socket.broadcast ~width s values
  | Local _ ->
    let view, words = Runtime.Mailbox.broadcast ~n:t.n ~width values in
    t.words_sent <- t.words_sent + words;
    t.rounds <- t.rounds + Runtime.Cost.broadcast_rounds;
    view

let session t = match t.engine with Sharded s -> Some s | Local _ -> None

let stats t =
  match t.engine with
  | Local (Some a) -> Runtime.Arena.stats a
  | Local None -> []
  | Sharded s -> Socket.stats s
