(* The faulty-transport functor. [Make (T)] is itself a Runtime.TRANSPORT,
   so Runtime.Make (Make (Sim)) (or (Make (Congest))) runs any node
   program through a deterministic fault layer: faults are decided by the
   schedule's keyed mixer on each message's coordinates, applied to the
   outgoing traffic, and the (possibly thinner) traffic is then delivered
   by the wrapped kernel, which keeps enforcing its own width bounds and
   round accounting. An empty schedule is an exact passthrough. *)

type event = {
  round : int;
  op : string;
  kind : Schedule.kind;
  src : int;
  dst : int;
  detail : string;
}

let pp_event ppf e =
  Format.fprintf ppf "round %d %s: %s src=%d dst=%d (%s)" e.round e.op
    (Schedule.kind_name e.kind) e.src e.dst e.detail

module Make (T : Runtime.TRANSPORT) = struct
  type t = {
    base : T.t;
    schedule : Schedule.t;
    crashed : bool array;
    mutable events : event list;  (* newest first *)
  }

  let default_width = T.default_width

  let unicast = T.unicast

  let inject ~schedule base =
    { base; schedule; crashed = Array.make (T.n base) false; events = [] }

  let n t = T.n t.base

  let rounds t = T.rounds t.base

  let words_sent t = T.words_sent t.base

  let recovery_rounds t = T.recovery_rounds t.base

  (* Both counts are read off the trace, the layer's one store. *)
  let injected t =
    List.map (fun e -> Schedule.kind_name e.kind) t.events
    |> List.sort String.compare
    |> List.fold_left
         (fun acc k ->
           match acc with
           | (k', c) :: rest when k' = k -> (k, c + 1) :: rest
           | _ -> (k, 1) :: acc)
         []
    |> List.rev

  let injected_total t = List.length t.events

  let events t = List.rev t.events

  let record t ~round ~op ~kind ~src ~dst ~detail =
    t.events <- { round; op; kind; src; dst; detail } :: t.events

  (* Operation salts keep exchange/route/broadcast decisions independent
     even when they share a round; [node_salt] separates per-node
     (stall/crash) draws from per-message draws. *)
  let op_salt = function "exchange" -> 1 | "route" -> 2 | _ -> 3

  let node_salt = -2

  (* Whether [src] sends nothing this call: crashed earlier, or a
     stall/crash rule fires on the (node, round) coordinates now. *)
  let silent t ~op ~phase ~round src =
    t.crashed.(src)
    ||
    let salt = op_salt op in
    List.exists
      (fun (ri, (r : Schedule.rule)) ->
        match r.kind with
        | Schedule.Stall | Schedule.Crash ->
          Schedule.applies r ~phase ~round
          && Schedule.draw t.schedule [ salt; round; src; node_salt; ri ]
             < r.rate
          &&
          (let detail =
             match r.kind with
             | Schedule.Crash ->
               t.crashed.(src) <- true;
               "node crash-stops"
             | _ -> "node stalls this call"
           in
           record t ~round ~op ~kind:r.kind ~src ~dst:(-1) ~detail;
           true)
        | _ -> false)
      (List.mapi (fun i r -> (i, r)) (Schedule.rules t.schedule))

  (* Apply the message-level rules in order; [None] means dropped. *)
  let mangle t ~op ~phase ~round ~src ~dst ~idx payload =
    let salt = op_salt op in
    let coords ri = [ salt; round; src; dst; idx; ri ] in
    let apply acc (ri, (r : Schedule.rule)) =
      match acc with
      | None -> None
      | Some p ->
        if
          (not (Schedule.applies r ~phase ~round))
          || Schedule.draw t.schedule (coords ri) >= r.rate
        then acc
        else begin
          let len = Array.length p in
          match r.kind with
          | Schedule.Drop ->
            record t ~round ~op ~kind:r.kind ~src ~dst
              ~detail:(Printf.sprintf "%d-word message dropped" len);
            None
          | Schedule.Corrupt when len > 0 ->
            let b = Schedule.bits t.schedule (7 :: coords ri) in
            let pos = b mod len in
            let mask = 1 + (b / len mod 0xffff) in
            let p' = Array.copy p in
            p'.(pos) <- p'.(pos) lxor mask;
            record t ~round ~op ~kind:r.kind ~src ~dst
              ~detail:
                (Printf.sprintf "word %d xor 0x%x (%d -> %d)" pos mask
                   p.(pos) p'.(pos));
            Some p'
          | Schedule.Truncate when len > 0 ->
            let keep =
              Schedule.bits t.schedule (11 :: coords ri) mod len
            in
            record t ~round ~op ~kind:r.kind ~src ~dst
              ~detail:(Printf.sprintf "payload %d -> %d words" len keep);
            Some (Array.sub p 0 keep)
          | _ -> acc
        end
    in
    List.fold_left apply (Some payload)
      (List.mapi (fun i r -> (i, r)) (Schedule.rules t.schedule))

  let exchange ?width t outboxes =
    if Schedule.is_empty t.schedule then T.exchange ?width t.base outboxes
    else begin
      let op = "exchange" in
      let phase = Runtime.Mailbox.current_context () in
      let round = T.rounds t.base in
      let faulted =
        Array.mapi
          (fun src msgs ->
            if silent t ~op ~phase ~round src then []
            else if T.unicast then
              List.mapi
                (fun idx (dst, payload) ->
                  match mangle t ~op ~phase ~round ~src ~dst ~idx payload with
                  | Some p -> Some (dst, p)
                  | None -> None)
                msgs
              |> List.filter_map Fun.id
            else
              (* On a broadcast kernel a source's outbox is one message on
                 the air: draw the fault once per source (dst = -1, like
                 broadcast) and apply the outcome to every listed entry, so
                 injection never turns a legal one-payload outbox into a
                 multi-payload violation. *)
              match msgs with
              | [] -> []
              | (_, payload) :: _ -> (
                match
                  mangle t ~op ~phase ~round ~src ~dst:(-1) ~idx:src payload
                with
                | Some p -> List.map (fun (dst, _) -> (dst, p)) msgs
                | None -> []))
          outboxes
      in
      T.exchange ?width t.base faulted
    end

  let route ?width t msgs =
    if Schedule.is_empty t.schedule then T.route ?width t.base msgs
    else begin
      let op = "route" in
      let phase = Runtime.Mailbox.current_context () in
      let round = T.rounds t.base in
      (* Per-node silence decided once per call, like the other ops. *)
      let silence = Hashtbl.create 8 in
      let is_silent src =
        match Hashtbl.find_opt silence src with
        | Some b -> b
        | None ->
          let b = silent t ~op ~phase ~round src in
          Hashtbl.add silence src b;
          b
      in
      let faulted =
        List.mapi (fun idx (src, dst, payload) -> (idx, src, dst, payload)) msgs
        |> List.filter_map (fun (idx, src, dst, payload) ->
               if is_silent src then None
               else
                 match mangle t ~op ~phase ~round ~src ~dst ~idx payload with
                 | Some p -> Some (src, dst, p)
                 | None -> None)
      in
      T.route ?width t.base faulted
    end

  (* A broadcast result is one slot per node, so node-level faults and
     drops blank the slot ([||]) instead of removing it. *)
  let broadcast ?width t values =
    if Schedule.is_empty t.schedule then T.broadcast ?width t.base values
    else begin
      let op = "broadcast" in
      let phase = Runtime.Mailbox.current_context () in
      let round = T.rounds t.base in
      let faulted =
        Array.mapi
          (fun src payload ->
            if silent t ~op ~phase ~round src then [||]
            else
              match
                mangle t ~op ~phase ~round ~src ~dst:(-1) ~idx:src payload
              with
              | Some p -> p
              | None -> [||])
          values
      in
      T.broadcast ?width t.base faulted
    end
end
