(* Remote shard worker launcher (DESIGN.md §14). Run on any host that can
   reach a coordinator started with CC_SHARD_ADDR and CC_SHARD_REMOTE:

     cc_worker tcp:host:port      # or host:port, or unix:/path

   The address takes Wire.Link's grammar (unix:PATH, tcp:HOST:PORT or
   bare HOST:PORT). Dials the rendezvous, retrying refused dials for this
   host's CC_SHARD_TIMEOUT, is assigned a reserved shard slot, and serves
   rounds under the session's timeout (sent with every Config) until the
   session shuts down. Never returns. *)

let () =
  match Sys.argv with
  | [| _; addr |] -> Clique.Socket.remote_worker addr
  | _ ->
    prerr_endline
      "usage: cc_worker ADDR   (unix:PATH, tcp:HOST:PORT or HOST:PORT)";
    exit 2
