(* A deterministic, seeded fault schedule. Every injection decision is a
   pure function of the schedule seed and the coordinates of the message it
   applies to (round, operation, src, dst, message index, rule index) —
   there is no PRNG stream to advance, so decisions do not depend on
   evaluation order and a replay of the same program on the same schedule
   injects bit-identical faults. *)

type kind = Drop | Corrupt | Truncate | Stall | Crash

let kind_name = function
  | Drop -> "drop"
  | Corrupt -> "corrupt"
  | Truncate -> "truncate"
  | Stall -> "stall"
  | Crash -> "crash"

let kind_of_name = function
  | "drop" -> Some Drop
  | "corrupt" -> Some Corrupt
  | "truncate" -> Some Truncate
  | "stall" -> Some Stall
  | "crash" -> Some Crash
  | _ -> None

type rule = {
  kind : kind;
  rate : float;
  phase : string option;
  first : int;
  last : int;
}

type t = { seed : int; rules : rule list }

let empty = { seed = 0; rules = [] }

let is_empty t = t.rules = []

let rule ?phase ?rounds kind rate =
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Schedule.rule: rate must lie in [0,1]";
  let first, last =
    match rounds with
    | None -> (0, max_int)
    | Some (a, b) ->
      if a < 0 || b < a then
        invalid_arg "Schedule.rule: need 0 <= first <= last";
      (a, b)
  in
  { kind; rate; phase; first; last }

let create ?(seed = 1) rules = { seed; rules }

let seed t = t.seed

let rules t = t.rules

let applies r ~phase ~round =
  round >= r.first
  && round <= r.last
  && match r.phase with None -> true | Some p -> p = phase

(* ---------------------------------------------- stateless SplitMix64 mix *)

let golden = 0x9e3779b97f4a7c15L

let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let combine h v = mix64 (Int64.add (Int64.logxor h (Int64.of_int v)) golden)

let key t ints = List.fold_left combine (mix64 (Int64.of_int t.seed)) ints

(* 53 uniform bits -> [0,1). *)
let to_unit h =
  Int64.to_float (Int64.shift_right_logical h 11) *. (1.0 /. 9007199254740992.0)

let draw t ints = to_unit (key t ints)

let bits t ints = Int64.to_int (Int64.shift_right_logical (key t ints) 2)

(* --------------------------------------------------- CC_FAULTS spec text *)

let to_string t =
  let rule_str r =
    let buf = Buffer.create 32 in
    Buffer.add_string buf
      (Printf.sprintf "%s:%g" (kind_name r.kind) r.rate);
    (match r.phase with
    | Some p -> Buffer.add_string buf ("@phase=" ^ p)
    | None -> ());
    if r.first > 0 || r.last < max_int then
      Buffer.add_string buf
        (if r.last = max_int then Printf.sprintf "@rounds=%d-" r.first
         else Printf.sprintf "@rounds=%d-%d" r.first r.last);
    Buffer.contents buf
  in
  String.concat ";"
    (Printf.sprintf "seed=%d" t.seed :: List.map rule_str t.rules)

let parse_rule part =
  match String.split_on_char '@' part with
  | [] -> Error "empty rule"
  | head :: scopes -> (
    match String.split_on_char ':' head with
    | [ name; rate_s ] -> (
      match (kind_of_name name, float_of_string_opt rate_s) with
      | None, _ ->
        Error
          (Printf.sprintf
             "unknown fault kind %S (drop|corrupt|truncate|stall|crash)" name)
      | _, None -> Error (Printf.sprintf "bad rate %S" rate_s)
      | Some kind, Some rate when rate >= 0.0 && rate <= 1.0 ->
        let parse_scope acc scope =
          match acc with
          | Error _ -> acc
          | Ok (phase, window) -> (
            match String.index_opt scope '=' with
            | None -> Error (Printf.sprintf "bad scope %S" scope)
            | Some i -> (
              let k = String.sub scope 0 i in
              let v =
                String.sub scope (i + 1) (String.length scope - i - 1)
              in
              match k with
              | "phase" -> Ok (Some v, window)
              | "rounds" -> (
                match String.split_on_char '-' v with
                | [ a; "" ] -> (
                  match int_of_string_opt a with
                  | Some a when a >= 0 -> Ok (phase, Some (a, max_int))
                  | _ -> Error (Printf.sprintf "bad round window %S" v))
                | [ a; b ] -> (
                  match (int_of_string_opt a, int_of_string_opt b) with
                  | Some a, Some b when 0 <= a && a <= b ->
                    Ok (phase, Some (a, b))
                  | _ -> Error (Printf.sprintf "bad round window %S" v))
                | _ -> Error (Printf.sprintf "bad round window %S" v))
              | _ -> Error (Printf.sprintf "unknown scope key %S" k)))
        in
        Result.map
          (fun (phase, window) -> rule ?phase ?rounds:window kind rate)
          (List.fold_left parse_scope (Ok (None, None)) scopes)
      | Some _, Some rate ->
        Error (Printf.sprintf "rate %g outside [0,1]" rate))
    | _ -> Error (Printf.sprintf "bad rule %S (want kind:rate)" part))

let of_string s =
  let parts =
    List.filter
      (fun p -> String.trim p <> "")
      (String.split_on_char ';' (String.trim s))
  in
  let step acc part =
    match acc with
    | Error _ -> acc
    | Ok t -> (
      let part = String.trim part in
      match String.split_on_char '=' part with
      | [ "seed"; v ] -> (
        match int_of_string_opt v with
        | Some seed -> Ok { t with seed }
        | None -> Error (Printf.sprintf "bad seed %S" v))
      | _ ->
        Result.map (fun r -> { t with rules = t.rules @ [ r ] }) (parse_rule part)
      )
  in
  List.fold_left step (Ok { seed = 1; rules = [] }) parts

let of_env () =
  match (Runtime.Config.get ()).faults with
  | None -> None
  | Some s -> (
    match of_string s with
    | Ok t -> Some t
    | Error e -> invalid_arg (Printf.sprintf "CC_FAULTS: %s (in %S)" e s))
