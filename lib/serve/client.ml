(* Minimal synchronous client for cc_serve: one request, one reply. *)

module Json = Metrics.Json
module Link = Wire.Link

type t = { link : Link.t }

let connect addr =
  { link = Link.dial ~peer:("cc-serve@" ^ addr) (Link.address addr) }

let close t = Link.close t.link

let id_of body =
  match Json.member "id" body with
  | Some v -> ( match Json.to_int_opt v with Some i -> i | None -> 0)
  | None -> 0

let send_and_wait ?deadline t frame =
  Link.send ?deadline t.link frame;
  let reply = Link.recv ?deadline t.link in
  match Json.of_string (Bytes.to_string reply.Wire.Frame.payload) with
  | Ok j -> j
  | Error e -> failwith ("cc-serve reply is not JSON: " ^ e)

let request ?deadline t body =
  send_and_wait ?deadline t
    (Job.frame ~kind:Job.frame_job ~id:(id_of body) body)

(* The text is parsed only to check it and to read its "id"; the frame
   carries the caller's bytes unchanged. Re-encoding would rewrite them:
   [Json] writes a number that overflowed to ∞, such as 1e400, as null. *)
let request_string ?deadline t s =
  match Json.of_string s with
  | Ok j ->
    send_and_wait ?deadline t
      (Job.frame_text ~kind:Job.frame_job ~id:(id_of j) s)
  | Error e -> failwith ("request is not JSON: " ^ e)

let ok j = match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false

let error_message j =
  match Json.member "error" j with
  | Some (Json.String s) -> Some s
  | _ -> None
