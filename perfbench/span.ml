(* Spans recorded by the traced run, from the benchmark's own code, around
   its calls into each layer's public functions. They are kept in memory
   and written out once, at exit, as Chrome trace-event JSON. *)

module Json = Metrics.Json

type span = {
  name : string;  (* "<layer>.<call>", the layer being a lib/ directory *)
  op : int;  (* the op this span belongs to; -1 for set-up and replays *)
  parent : int;  (* index of the enclosing span, -1 at top level *)
  lane : int;  (* the Chrome trace "process" the span is drawn in *)
  t0 : float;
  mutable t1 : float;
  mutable alloc : float;  (* words allocated inside, children included *)
}

type t = {
  own_lane : int;  (* the lane of the spans [record] makes *)
  mutable spans : span array;
  mutable len : int;
  mutable open_ : int list;
}

let create ~lane = { own_lane = lane; spans = [||]; len = 0; open_ = [] }

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

let current t = match t.open_ with p :: _ -> p | [] -> -1

let current_start t =
  match t.open_ with p :: _ -> t.spans.(p).t0 | [] -> nan

(* [record t ~op name f] runs [f] inside a span nested under the innermost
   open one. *)
let record t ~op name f =
  let a0 = Measure.alloc_words () in
  let i =
    push t
      { name; op; parent = current t; lane = t.own_lane; t0 = Measure.now ();
        t1 = nan; alloc = 0. }
  in
  t.open_ <- i :: t.open_;
  Fun.protect
    ~finally:(fun () ->
      let s = t.spans.(i) in
      s.t1 <- Measure.now ();
      s.alloc <- Measure.alloc_words () -. a0;
      t.open_ <- List.tl t.open_)
    f

(* A span measured elsewhere — the daemon's queue wait and execution, from
   its reply — placed under the innermost open span. *)
let add t ~op ~lane name t0 t1 =
  ignore
    (push t { name; op; parent = current t; lane; t0; t1; alloc = 0. } : int)

(* ------------------------------------------------------------ summary *)

type row = {
  count : int;
  total : float;  (* seconds, children included *)
  self : float;  (* seconds, children excluded *)
  self_alloc : float;  (* words, children excluded *)
}

let dur s = s.t1 -. s.t0

(* Per span name: count, total, and self time and allocation — a span's
   own figure minus what its direct children cover. *)
let summary t =
  let child_time = Array.make t.len 0. and child_alloc = Array.make t.len 0. in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then begin
      child_time.(s.parent) <- child_time.(s.parent) +. dur s;
      child_alloc.(s.parent) <- child_alloc.(s.parent) +. s.alloc
    end
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let r =
      match Hashtbl.find_opt tbl s.name with
      | Some r -> r
      | None -> { count = 0; total = 0.; self = 0.; self_alloc = 0. }
    in
    Hashtbl.replace tbl s.name
      {
        count = r.count + 1;
        total = r.total +. dur s;
        self = r.self +. dur s -. child_time.(i);
        self_alloc = r.self_alloc +. s.alloc -. child_alloc.(i);
      }
  done;
  tbl

let find tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None -> { count = 0; total = 0.; self = 0.; self_alloc = 0. }

(* Mean duration in ms and mean allocation in Mwords of one span name. *)
let mean_ms tbl name =
  let r = find tbl name in
  if r.count = 0 then 0. else r.total *. 1000. /. float_of_int r.count

let mean_self_alloc_mwords tbl name =
  let r = find tbl name in
  if r.count = 0 then 0. else r.self_alloc /. 1e6 /. float_of_int r.count

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* The per-span and per-layer self-time and allocation table, normalised
   per op ([ops] ops recorded in [t]). *)
let table t ~ops =
  let tbl = summary t in
  let rows =
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) tbl []
    |> List.sort (fun (a, x) (b, y) -> compare (y.self, a) (x.self, b))
  in
  let per_op x = x /. float_of_int (max ops 1) in
  let line (name, r) =
    Printf.sprintf "  %-32s %7d  %10.3f  %10.3f  %10.4f" name r.count
      (per_op r.total *. 1000.) (per_op r.self *. 1000.)
      (per_op r.self_alloc /. 1e6)
  in
  let layers = Hashtbl.create 16 in
  List.iter
    (fun (name, r) ->
      let l = layer name in
      let s, a = Option.value (Hashtbl.find_opt layers l) ~default:(0., 0.) in
      Hashtbl.replace layers l (s +. r.self, a +. r.self_alloc))
    rows;
  let layer_rows =
    Hashtbl.fold (fun l (s, a) acc -> (l, s, a) :: acc) layers []
    |> List.sort (fun (a, x, _) (b, y, _) -> compare (y, a) (x, b))
  in
  let all_self = List.fold_left (fun acc (_, s, _) -> acc +. s) 0. layer_rows in
  (Printf.sprintf "  %-32s %7s  %10s  %10s  %10s" "span" "count" "ms/op"
     "self ms/op" "self Mw/op"
  :: List.map line rows)
  @ (Printf.sprintf "  %-32s %10s  %7s  %10s" "layer" "self ms/op" "share"
       "self Mw/op"
    :: List.map
         (fun (l, s, a) ->
           Printf.sprintf "  %-32s %10.3f  %6.1f%%  %10.4f" l
             (per_op s *. 1000.) (Measure.pct s all_self) (per_op a /. 1e6))
         layer_rows)

(* Chrome trace-event JSON (complete "X" events, microseconds), viewable
   in Perfetto or chrome://tracing. [lanes] names each lane. *)
let export tracers ~lanes path =
  let all =
    List.concat_map (fun t -> Array.to_list (Array.sub t.spans 0 t.len)) tracers
  in
  let base = List.fold_left (fun b s -> Float.min b s.t0) infinity all in
  let us x = Json.Float (Float.round (x *. 1e7) /. 10.) in
  let event s =
    Json.Assoc
      [
        ("name", Json.String s.name);
        ("cat", Json.String (layer s.name));
        ("ph", Json.String "X");
        ("ts", us (s.t0 -. base));
        ("dur", us (dur s));
        ("pid", Json.Int s.lane);
        ("tid", Json.Int 1);
        ( "args",
          Json.Assoc
            [ ("op", Json.Int s.op); ("alloc_words", Json.Float s.alloc) ] );
      ]
  in
  let names =
    List.map
      (fun (pid, n) ->
        Json.Assoc
          [
            ("name", Json.String "process_name");
            ("ph", Json.String "M");
            ("pid", Json.Int pid);
            ("args", Json.Assoc [ ("name", Json.String n) ]);
          ])
      lanes
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_string ~minify:true
           (Json.Assoc
              [
                ("traceEvents", Json.List (names @ List.map event all));
                ("displayTimeUnit", Json.String "ms");
              ])))
