(* Minimal synchronous client for cc_serve: one request, one reply. *)

module Json = Metrics.Json
module Link = Wire.Link

type t = { link : Link.t }

let connect addr =
  { link = Link.dial ~peer:("cc-serve@" ^ addr) (Link.address addr) }

let close t = Link.close t.link

let request ?deadline t body =
  let id =
    match Json.member "id" body with
    | Some v -> ( match Json.to_int_opt v with Some i -> i | None -> 0)
    | None -> 0
  in
  Link.send ?deadline t.link (Job.frame ~kind:Job.frame_job ~id body);
  let reply = Link.recv ?deadline t.link in
  match Json.of_string (Bytes.to_string reply.Wire.Frame.payload) with
  | Ok j -> j
  | Error e -> failwith ("cc-serve reply is not JSON: " ^ e)

let request_string ?deadline t s =
  match Json.of_string s with
  | Ok j -> request ?deadline t j
  | Error e -> failwith ("request is not JSON: " ^ e)

let ok j = match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false

let error_message j =
  match Json.member "error" j with
  | Some (Json.String s) -> Some s
  | _ -> None
