(* The one reader of the CC_* knobs (see config.mli). Every value is
   trimmed, enum and boolean values are lowercased, and an unrecognized
   value falls back to the knob's default. *)

type model = Unicast | Broadcast

type policy = Fail | Respawn | Drain

type kernel = Arena | Legacy | Shard

type t = {
  domains : int;
  shards : int;
  model : model;
  sanitize : bool;
  policy : policy;
  timeout : float;
  addr : string option;
  remote : int;
  log : string option;
  faults : string option;
  kernel : kernel option;
}

let parse lookup =
  let raw name = Option.map String.trim (lookup name) in
  let word name = Option.map String.lowercase_ascii (raw name) in
  let count name ~min ~default =
    match Option.bind (raw name) int_of_string_opt with
    | Some k when k >= min -> k
    | _ -> default
  in
  {
    domains = count "CC_DOMAINS" ~min:1 ~default:1;
    shards = count "CC_SHARDS" ~min:1 ~default:1;
    model =
      (match word "CC_MODEL" with
      | Some ("broadcast" | "bcast") -> Broadcast
      | _ -> Unicast);
    sanitize =
      (match word "CC_SANITIZE" with
      | Some ("1" | "true" | "yes" | "on") -> true
      | _ -> false);
    policy =
      (match word "CC_SHARD_POLICY" with
      | Some "respawn" -> Respawn
      | Some "drain" -> Drain
      | _ -> Fail);
    timeout =
      (match Option.bind (raw "CC_SHARD_TIMEOUT") float_of_string_opt with
      | Some x when x > 0.0 -> x
      | _ -> 30.0);
    addr = raw "CC_SHARD_ADDR";
    remote = count "CC_SHARD_REMOTE" ~min:0 ~default:0;
    log = raw "CC_SHARD_LOG";
    faults = (match raw "CC_FAULTS" with Some "" -> None | f -> f);
    kernel = None;
  }

(* Replaced only by [with_], which runs on the main domain; readers on any
   domain see a whole record. *)
let current = Atomic.make (parse Sys.getenv_opt)

let get () = Atomic.get current

let with_ c f =
  let prev = Atomic.exchange current c in
  Fun.protect ~finally:(fun () -> Atomic.set current prev) f
