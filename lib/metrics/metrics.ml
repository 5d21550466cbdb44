module Json = Json

type counter = { c_live : bool; mutable c_value : int }

type gauge = { g_live : bool; mutable g_value : float }

type histogram = { h_live : bool; h_buckets : int array }

type span = {
  s_live : bool;
  mutable s_count : int;
  mutable s_total : float;
  mutable s_min : float;
  mutable s_max : float;
}

type span_stats = { count : int; total_s : float; min_s : float; max_s : float }

type t = {
  enabled : bool;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  spans : (string, span) Hashtbl.t;
}

let buckets = 16

let create ?(enabled = true) () =
  {
    enabled;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 8;
    spans = Hashtbl.create 8;
  }

let disabled = create ~enabled:false ()

let enabled t = t.enabled

(* Shared dummies handed out by disabled registries: mutations test the
   [live] flag and return, so a handle is safe to keep unconditionally. *)
let dummy_counter = { c_live = false; c_value = 0 }

let dummy_gauge = { g_live = false; g_value = 0. }

let dummy_histogram = { h_live = false; h_buckets = [||] }

let dummy_span =
  { s_live = false; s_count = 0; s_total = 0.; s_min = 0.; s_max = 0. }

let get_or_create tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.replace tbl name v;
    v

let counter t name =
  if not t.enabled then dummy_counter
  else
    get_or_create t.counters name (fun () -> { c_live = true; c_value = 0 })

let incr ?(by = 1) c =
  if c.c_live then begin
    if by < 0 then invalid_arg "Metrics.incr: negative increment";
    c.c_value <- c.c_value + by
  end

let counter_value c = c.c_value

let gauge t name =
  if not t.enabled then dummy_gauge
  else get_or_create t.gauges name (fun () -> { g_live = true; g_value = 0. })

let set g v = if g.g_live then g.g_value <- v

let gauge_value g = g.g_value

let histogram t name =
  if not t.enabled then dummy_histogram
  else
    get_or_create t.histograms name (fun () ->
        { h_live = true; h_buckets = Array.make buckets 0 })

let bucket v =
  if v <= 0 then 0
  else begin
    let rec log2_ceil acc p = if p >= v + 1 then acc else log2_ceil (acc + 1) (p * 2) in
    min (buckets - 1) (log2_ceil 0 1)
  end

let observe h v =
  if h.h_live then begin
    let b = bucket v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1
  end

let histogram_buckets h =
  if h.h_live then Array.copy h.h_buckets else Array.make buckets 0

let span t name =
  if not t.enabled then dummy_span
  else
    get_or_create t.spans name (fun () ->
        { s_live = true; s_count = 0; s_total = 0.; s_min = 0.; s_max = 0. })

let add_duration s d =
  if s.s_live then begin
    let d = Float.max d 0. in
    s.s_min <- (if s.s_count = 0 then d else Float.min s.s_min d);
    s.s_max <- (if s.s_count = 0 then d else Float.max s.s_max d);
    s.s_count <- s.s_count + 1;
    s.s_total <- s.s_total +. d
  end

let time s f =
  if not s.s_live then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> add_duration s (Unix.gettimeofday () -. t0)) f
  end

let span_stats s =
  { count = s.s_count; total_s = s.s_total; min_s = s.s_min; max_s = s.s_max }

let reset t =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) t.counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.) t.gauges;
  Hashtbl.iter (fun _ h -> Array.fill h.h_buckets 0 buckets 0) t.histograms;
  Hashtbl.iter
    (fun _ s ->
      s.s_count <- 0;
      s.s_total <- 0.;
      s.s_min <- 0.;
      s.s_max <- 0.)
    t.spans

let ingest_phases t ~prefix phases =
  if t.enabled then begin
    let total = ref 0 in
    List.iter
      (fun (phase, r) ->
        total := !total + r;
        incr ~by:r (counter t (prefix ^ "." ^ phase)))
      phases;
    incr ~by:!total (counter t (prefix ^ ".total"))
  end

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json t =
  let counters =
    List.map
      (fun (k, c) -> (k, Json.Int c.c_value))
      (sorted_bindings t.counters)
  in
  let gauges =
    List.map
      (fun (k, g) -> (k, Json.Float g.g_value))
      (sorted_bindings t.gauges)
  in
  let histograms =
    List.map
      (fun (k, h) ->
        ( k,
          Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.h_buckets))
        ))
      (sorted_bindings t.histograms)
  in
  let spans =
    List.map
      (fun (k, s) ->
        ( k,
          Json.Assoc
            [
              ("count", Json.Int s.s_count);
              ("total_s", Json.Float s.s_total);
              ("min_s", Json.Float s.s_min);
              ("max_s", Json.Float s.s_max);
            ] ))
      (sorted_bindings t.spans)
  in
  Json.Assoc
    [
      ("counters", Json.Assoc counters);
      ("gauges", Json.Assoc gauges);
      ("histograms", Json.Assoc histograms);
      ("spans", Json.Assoc spans);
    ]
