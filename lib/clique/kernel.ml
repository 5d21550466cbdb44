module On_sim = Runtime.Make (Sim)
module On_congest = Runtime.Make (Congest)
module On_socket = Runtime.Make (Socket)
module On_bcast = Runtime.Make (Broadcast)
module Sim_programs = Programs.Make (On_sim)
module Congest_programs = Programs.Make (On_congest)
module Socket_programs = Programs.Make (On_socket)
module Bcast_programs = Programs.Make (On_bcast)

type t = On_sim.t

let clique n = On_sim.create (Sim.create n)

let congest g = On_congest.create (Congest.create g)

let bcast n = On_bcast.create (Broadcast.create n)

let with_clique n f =
  let rt = clique n in
  let close () = Option.iter Socket.close (Sim.session (On_sim.transport rt)) in
  Fun.protect ~finally:close (fun () -> f rt)

let rounds = On_sim.rounds

let words = On_sim.words
