(* The batched solve daemon (DESIGN.md §15).

     cc_serve                        # serve unix:/tmp/cc-serve.sock until
                                     # a Shutdown job
     cc_serve --addr unix:/tmp/s     # another address (unix:PATH,
                                     # tcp:HOST:PORT or HOST:PORT)
     cc_serve --call '<json>'        # one-shot client: send a job, print
                                     # the reply, exit 0 iff ok

   Flags override Serve.Daemon.default_config: --jobs N worker domains
   (2), --cache N artifact-cache entries (32), --policy none | verify |
   recover (none). *)

let usage () =
  prerr_endline
    "usage: cc_serve [--addr ADDR] [--jobs N] [--cache N] [--policy P]\n\
    \       cc_serve --call JSON [--addr ADDR]";
  exit 2

let fail msg =
  prerr_endline ("cc_serve: " ^ msg);
  exit 1

let positive flag v =
  match int_of_string_opt v with
  | Some n when n >= 1 -> n
  | _ -> fail (flag ^ " must be a positive integer, got " ^ v)

let parse_args () =
  let rec go (c : Serve.Daemon.config) call = function
    | [] -> (c, call)
    | "--addr" :: v :: rest -> go { c with addr = v } call rest
    | "--jobs" :: v :: rest ->
      go { c with jobs = positive "--jobs" v } call rest
    | "--cache" :: v :: rest ->
      go { c with cache_cap = positive "--cache" v } call rest
    | "--policy" :: v :: rest -> (
      match Serve.Exec.policy_of_string v with
      | Ok policy -> go { c with policy } call rest
      | Error msg -> fail msg)
    | "--call" :: v :: rest -> go c (Some v) rest
    | _ -> usage ()
  in
  go Serve.Daemon.default_config None (List.tl (Array.to_list Sys.argv))

let () =
  let config, call = parse_args () in
  match call with
  | Some body ->
    let client =
      match Serve.Client.connect config.Serve.Daemon.addr with
      | c -> c
      | exception Unix.Unix_error (e, _, _) ->
        fail
          (Printf.sprintf "cannot reach %s: %s" config.Serve.Daemon.addr
             (Unix.error_message e))
      | exception Invalid_argument msg -> fail msg
    in
    let reply = Serve.Client.request_string client body in
    Serve.Client.close client;
    print_endline (Serve.Client.Json.to_string reply);
    exit (if Serve.Client.ok reply then 0 else 1)
  | None ->
    let t =
      match Serve.Daemon.start config with
      | t -> t
      | exception Invalid_argument msg -> fail msg
    in
    Printf.printf "cc_serve: listening on %s (%d workers, cache %d, policy %s)\n%!"
      (Serve.Daemon.addr t) config.Serve.Daemon.jobs
      config.Serve.Daemon.cache_cap
      (Serve.Exec.policy_name config.Serve.Daemon.policy);
    Serve.Daemon.wait t
