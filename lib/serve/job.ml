(* Job specs and the JSON wire protocol of cc_serve (DESIGN.md §15).

   A request is one frame of kind [frame_job] whose payload is a JSON
   object; the response comes back as one frame of kind [frame_result]
   (or [frame_error]) whose payload is again JSON, with the request [id]
   echoed both in the body and as the frame sequence number. *)

module Json = Metrics.Json

let frame_job = 0x30

let frame_result = 0x31

let frame_error = 0x32

type solver = Chebyshev | Cg_baseline

type 'a operand = Given of 'a | Spec of { key : string; build : unit -> 'a }

type rhs = Values of Linalg.Vec.t | Pattern of int

type payload =
  | Solve of {
      g : Graph.t operand;
      b : rhs;
      solver : solver;
      eps : float;
      return_x : bool;
    }
  | Sparsify of { g : Graph.t operand }
  | Maxflow of { net : Digraph.t operand; s : int; t : int option }
  | Mst of { g : Graph.t operand }
  | Stats
  | Shutdown

type t = {
  id : int;
  payload : payload;
  timeout_ms : float option;
  inject : bool;
  nocache : bool;
}

let build = function Given v -> v | Spec { build; _ } -> build ()

(* Spec keys read "name(k=v,...)" and fingerprint keys "fnv:" and 16 hex
   digits, so the two never collide. *)
let key fingerprint = function
  | Given v -> "fnv:" ^ Fingerprint.to_hex (fingerprint v)
  | Spec { key; _ } -> key

let kind_name = function
  | Solve _ -> "solve"
  | Sparsify _ -> "sparsify"
  | Maxflow _ -> "maxflow"
  | Mst _ -> "mst"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

(* ------------------------------------------------------------ parsing *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let int_field name j =
  let* v = field name j in
  match Json.to_int_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S must be an integer" name)

let float_field name j =
  let* v = field name j in
  match Json.to_float_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S must be a number" name)

let opt_int name ~default j =
  match Json.member name j with
  | None -> Ok default
  | Some v -> (
    match Json.to_int_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %S must be an integer" name))

let opt_float name ~default j =
  match Json.member name j with
  | None -> Ok default
  | Some v -> (
    match Json.to_float_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "field %S must be a number" name))

let opt_bool name j =
  match Json.member name j with Some (Json.Bool b) -> b | _ -> false

(* One generator parameter, spelled into the spec key as the generator
   receives it: an int in decimal, a float by its IEEE bits, so "0.3" and
   "3e-1" give one key. *)
let int_param name j =
  let* v = int_field name j in
  Ok (v, Printf.sprintf "%s=%d" name v)

let float_param name j =
  let* v = float_field name j in
  Ok (v, Printf.sprintf "%s=%Lx" name (Int64.bits_of_float v))

let seed_param j =
  let* s = opt_int "seed" ~default:1 j in
  Ok (Int64.of_int s, Printf.sprintf "seed=%d" s)

let spec name params build =
  Ok (Spec { key = name ^ "(" ^ String.concat "," params ^ ")"; build })

(* A graph is either explicit — {"n": 4, "edges": [[u, v, w], ...]} — or a
   named deterministic generator from Gen, so requests stay small and the
   bench can describe whole workloads inline. A generator is not run
   here: Exec runs it on a cache miss, and every generator is a pure
   function of its parameters (gen.mli), so the spec names one graph. *)
let graph_of_json j =
  match Json.member "gen" j with
  | Some (Json.String ("connected_gnp" as name)) ->
    let* n, kn = int_param "n" j in
    let* p, kp = float_param "p" j in
    let* seed, ks = seed_param j in
    spec name [ kn; kp; ks ] (fun () -> Gen.connected_gnp ~seed n p)
  | Some (Json.String ("weighted_gnp" as name)) ->
    let* n, kn = int_param "n" j in
    let* p, kp = float_param "p" j in
    let* u, ku = int_param "u" j in
    let* seed, ks = seed_param j in
    spec name [ kn; kp; ku; ks ] (fun () -> Gen.weighted_gnp ~seed n p u)
  | Some (Json.String ("expander" as name)) ->
    let* n, kn = int_param "n" j in
    let* d, kd = int_param "d" j in
    spec name [ kn; kd ] (fun () -> Gen.expander n d)
  | Some (Json.String ("grid" as name)) ->
    let* r, kr = int_param "rows" j in
    let* c, kc = int_param "cols" j in
    spec name [ kr; kc ] (fun () -> Gen.grid r c)
  | Some (Json.String ("barbell" as name)) ->
    let* k, kk = int_param "k" j in
    spec name [ kk ] (fun () -> Gen.barbell k)
  | Some (Json.String g) -> Error (Printf.sprintf "unknown graph gen %S" g)
  | Some _ -> Error "field \"gen\" must be a string"
  | None ->
    let* n = int_field "n" j in
    let* edges = field "edges" j in
    let* lst =
      match Json.to_list_opt edges with
      | Some l -> Ok l
      | None -> Error "field \"edges\" must be a list"
    in
    let* edges =
      List.fold_left
        (fun acc e ->
          let* acc = acc in
          match e with
          | Json.List [ u; v; w ] -> (
            match
              (Json.to_int_opt u, Json.to_int_opt v, Json.to_float_opt w)
            with
            | Some u, Some v, Some w ->
              Ok ({ Graph.u; v; w } :: acc)
            | _ -> Error "edge entries must be [int, int, number]")
          | _ -> Error "each edge must be a [u, v, w] triple")
        (Ok []) lst
    in
    (try Ok (Given (Graph.create n (List.rev edges)))
     with Invalid_argument m -> Error m)

let net_of_json j =
  match Json.member "gen" j with
  | Some (Json.String ("layered" as name)) ->
    let* layers, kl = int_param "layers" j in
    let* width, kw = int_param "width" j in
    let* maxcap, kc = int_param "maxcap" j in
    let* seed, ks = seed_param j in
    spec name [ kl; kw; kc; ks ] (fun () ->
        Gen.layered_network ~seed layers width maxcap)
  | Some (Json.String ("random_network" as name)) ->
    let* n, kn = int_param "n" j in
    let* m, km = int_param "m" j in
    let* maxcap, kc = int_param "maxcap" j in
    let* seed, ks = seed_param j in
    spec name [ kn; km; kc; ks ] (fun () ->
        Gen.random_network ~seed n m maxcap)
  | Some (Json.String g) -> Error (Printf.sprintf "unknown network gen %S" g)
  | Some _ -> Error "field \"gen\" must be a string"
  | None ->
    let* n = int_field "n" j in
    let* arcs = field "arcs" j in
    let* lst =
      match Json.to_list_opt arcs with
      | Some l -> Ok l
      | None -> Error "field \"arcs\" must be a list"
    in
    let* arcs =
      List.fold_left
        (fun acc a ->
          let* acc = acc in
          match a with
          | Json.List [ src; dst; cap ] -> (
            match
              (Json.to_int_opt src, Json.to_int_opt dst, Json.to_int_opt cap)
            with
            | Some src, Some dst, Some cap ->
              Ok ({ Digraph.src; dst; cap; cost = 0 } :: acc)
            | _ -> Error "arc entries must be [int, int, int]")
          | _ -> Error "each arc must be a [src, dst, cap] triple")
        (Ok []) lst
    in
    (try Ok (Given (Digraph.create n (List.rev arcs)))
     with Invalid_argument m -> Error m)

(* The right-hand side: an explicit float list, or {"seed": k} for the
   deterministic full-support pattern (the solver centers it). Its length
   is checked against the graph by [rhs], once the graph is at hand. *)
let rhs_of_json j =
  match j with
  | Json.List l ->
    let* b =
      List.fold_left
        (fun acc v ->
          let* acc = acc in
          match Json.to_float_opt v with
          | Some f -> Ok (f :: acc)
          | None -> Error "field \"b\" entries must be numbers")
        (Ok []) l
    in
    Ok (Values (Array.of_list (List.rev b)))
  | Json.Assoc _ ->
    let* seed = opt_int "seed" ~default:1 j in
    Ok (Pattern seed)
  | _ -> Error "field \"b\" must be a list of numbers or {\"seed\": k}"

let rhs b ~n =
  match b with
  | Values b ->
    if Array.length b <> n then
      Error
        (Printf.sprintf "field \"b\" has %d entries for %d nodes"
           (Array.length b) n)
    else Ok b
  | Pattern seed ->
    Ok
      (Linalg.Vec.init n (fun i ->
           let s = if (i + seed) land 1 = 0 then 1. else -1. in
           s *. (1. +. (float_of_int (((i + seed) * 40503) land 0xffff)
                        /. 65536.))))

let parse j =
  let* id = opt_int "id" ~default:0 j in
  let* kind = field "kind" j in
  let* kind =
    match Json.to_string_opt kind with
    | Some k -> Ok k
    | None -> Error "field \"kind\" must be a string"
  in
  let* payload =
    match kind with
    | "solve" ->
      let* gj = field "graph" j in
      let* g = graph_of_json gj in
      let* solver =
        match Json.member "solver" j with
        | None | Some (Json.String "chebyshev") -> Ok Chebyshev
        | Some (Json.String "cg") -> Ok Cg_baseline
        | Some (Json.String s) ->
          Error (Printf.sprintf "unknown solver %S" s)
        | Some _ -> Error "field \"solver\" must be a string"
      in
      let* eps = opt_float "eps" ~default:1e-6 j in
      let* b =
        match Json.member "b" j with
        | None -> Ok (Pattern 1)
        | Some bj -> rhs_of_json bj
      in
      Ok (Solve { g; b; solver; eps; return_x = opt_bool "return_x" j })
    | "sparsify" ->
      let* gj = field "graph" j in
      let* g = graph_of_json gj in
      Ok (Sparsify { g })
    | "maxflow" ->
      let* nj = field "net" j in
      let* net = net_of_json nj in
      let* s = opt_int "s" ~default:0 j in
      let* t =
        match Json.member "t" j with
        | None -> Ok None
        | Some _ ->
          let* t = int_field "t" j in
          Ok (Some t)
      in
      Ok (Maxflow { net; s; t })
    | "mst" ->
      let* gj = field "graph" j in
      let* g = graph_of_json gj in
      Ok (Mst { g })
    | "stats" -> Ok Stats
    | "shutdown" -> Ok Shutdown
    | k -> Error (Printf.sprintf "unknown job kind %S" k)
  in
  let* timeout_ms =
    match Json.member "timeout_ms" j with
    | None -> Ok None
    | Some v -> (
      match Json.to_float_opt v with
      | Some f -> Ok (Some f)
      | None -> Error "field \"timeout_ms\" must be a number")
  in
  Ok
    {
      id;
      payload;
      timeout_ms;
      inject = opt_bool "inject" j;
      nocache = opt_bool "nocache" j;
    }

let parse_document = function
  | Error e -> Error (Printf.sprintf "malformed JSON: %s" e)
  | Ok (Json.Assoc _ as j) -> parse j
  | Ok _ -> Error "request must be a JSON object"

let parse_string s = parse_document (Json.of_string s)

let parse_bytes b ~len = parse_document (Json.of_bytes b ~len)

(* ----------------------------------------------------------- responses *)

let error_body ~id msg =
  Json.Assoc [ ("id", Json.Int id); ("ok", Json.Bool false);
               ("error", Json.String msg) ]

let result_body ~id ~kind ~result ~metrics =
  Json.Assoc
    [
      ("id", Json.Int id);
      ("ok", Json.Bool true);
      ("kind", Json.String kind);
      ("result", Json.Assoc result);
      ("metrics", Json.Assoc metrics);
    ]

let frame_text ~kind ~id text =
  {
    Wire.Frame.kind;
    src = 0;
    dst = 0;
    seq = id;
    epoch = 0;
    payload = Bytes.of_string text;
  }

let frame ~kind ~id body =
  frame_text ~kind ~id (Json.to_string ~minify:true body)
