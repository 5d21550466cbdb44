(* The batched solve daemon (DESIGN.md §15).

     cc_serve                        # serve CC_SERVE_ADDR until Shutdown
     cc_serve --addr unix:/tmp/s     # override the address (unix:PATH,
                                     # tcp:HOST:PORT or HOST:PORT)
     cc_serve --call '<json>'        # one-shot client: send a job, print
                                     # the reply, exit 0 iff ok

   Knobs (env): CC_SERVE_ADDR, CC_SERVE_JOBS, CC_SERVE_CACHE,
   CC_SERVE_POLICY (none | verify | recover). *)

let usage () =
  prerr_endline
    "usage: cc_serve [--addr ADDR] [--jobs N] [--cache N] [--policy P]\n\
    \       cc_serve --call JSON [--addr ADDR]\n\
     env: CC_SERVE_ADDR CC_SERVE_JOBS CC_SERVE_CACHE CC_SERVE_POLICY";
  exit 2

let fail msg =
  prerr_endline ("cc_serve: " ^ msg);
  exit 1

type opts = {
  mutable addr : string option;
  mutable jobs : int option;
  mutable cache : int option;
  mutable policy : string option;
  mutable call : string option;
}

let parse_args () =
  let o = { addr = None; jobs = None; cache = None; policy = None; call = None } in
  let rec go = function
    | [] -> o
    | "--addr" :: v :: rest ->
      o.addr <- Some v;
      go rest
    | "--jobs" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 ->
        o.jobs <- Some n;
        go rest
      | _ -> fail ("--jobs must be a positive integer, got " ^ v))
    | "--cache" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 ->
        o.cache <- Some n;
        go rest
      | _ -> fail ("--cache must be a positive integer, got " ^ v))
    | "--policy" :: v :: rest ->
      o.policy <- Some v;
      go rest
    | "--call" :: v :: rest ->
      o.call <- Some v;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

let () =
  let o = parse_args () in
  let config =
    match Serve.Daemon.config_of_env () with
    | Ok c -> c
    | Error msg -> fail msg
  in
  let config =
    {
      config with
      Serve.Daemon.addr = Option.value o.addr ~default:config.Serve.Daemon.addr;
      jobs = Option.value o.jobs ~default:config.Serve.Daemon.jobs;
      cache_cap = Option.value o.cache ~default:config.Serve.Daemon.cache_cap;
      policy =
        (match o.policy with
        | None -> config.Serve.Daemon.policy
        | Some p -> (
          match Serve.Exec.policy_of_string p with
          | Ok p -> p
          | Error msg -> fail msg));
    }
  in
  match o.call with
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
