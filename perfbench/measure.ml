(* Clocks, the timed window, percentiles, /proc readers and the metric
   record shared by the three workloads. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------ metrics *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What one workload run hands back to the main module. [failed] counts
   op ids, so an op failing several checks counts once. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  report : string list;  (* human-readable lines printed before the result *)
}

(* -------------------------------------------------------- percentiles *)

(* Linear interpolation between closest ranks (Hyndman–Fan type 7, the
   default of numpy and of Python's statistics.quantiles "inclusive"). *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = float_of_int (n - 1) *. q in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* ------------------------------------------------------------ /proc *)

(* /proc files report length 0, so read them line by line. *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let proc pid = if pid = 0 then "/proc/self" else Printf.sprintf "/proc/%d" pid

(* VmHWM — the peak resident set — of [pid] (0 = this process), in MiB. *)
let peak_rss_mb pid =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (read_lines (proc pid ^ "/status"))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* utime + stime of [pid], all threads, in seconds. /proc/<pid>/stat counts
   in USER_HZ ticks, which the Linux ABI fixes at 100 per second. The
   command name (field 2) may contain spaces, so fields are counted from
   the last ')'. *)
let proc_cpu_s pid =
  let s = List.hd (read_lines (proc pid ^ "/stat")) in
  let rest =
    String.sub s (String.rindex s ')' + 2)
      (String.length s - String.rindex s ')' - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* f.(0) is field 3 (state); utime and stime are fields 14 and 15. *)
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated by this domain so far (minor + direct major). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ------------------------------------------------------------ window *)

type window = {
  latencies : float array;  (* seconds, one per op, in op order *)
  wall : float;  (* seconds on the clock: the sum of the latencies *)
  cpu : float;  (* CPU seconds of the measured process on the clock *)
}

(* How the measured process's CPU time is sampled: around each op, when
   it is this process (which also checks results between ops); over the
   whole loop, when it is a daemon that is idle between ops. *)
type cpu_clock = Per_op of (unit -> float) | Whole_loop of (unit -> float)

(* Run ops 0, 1, 2, … in a closed loop until [seconds] are on the clock,
   but stop only at a multiple of [cycle]: every fleet instance then runs
   equally often, so per-op averages such as rounds_per_op repeat exactly
   however many cycles fit, and [seconds] = 0 gives exactly one cycle.
   [op k timed] runs op [k]; only the thunk it passes to [timed] is on the
   clock, so it checks and discards each result off the clock and memory
   does not grow with the window. *)
let run_window ~seconds ~cycle ~cpu op =
  let lat = ref (Array.make 1024 0.) in
  let k = ref 0 and clock = ref 0. and cpu_on_clock = ref 0. in
  let timed f =
    let c0 = match cpu with Per_op sample -> sample () | Whole_loop _ -> 0. in
    let t0 = now () in
    let v = f () in
    let dt = now () -. t0 in
    (match cpu with
    | Per_op sample -> cpu_on_clock := !cpu_on_clock +. (sample () -. c0)
    | Whole_loop _ -> ());
    if !k = Array.length !lat then begin
      let bigger = Array.make (2 * !k) 0. in
      Array.blit !lat 0 bigger 0 !k;
      lat := bigger
    end;
    !lat.(!k) <- dt;
    clock := !clock +. dt;
    v
  in
  let stop () = !k > 0 && !k mod cycle = 0 && !clock >= seconds in
  Gc.full_major ();
  let loop0 = match cpu with Whole_loop sample -> sample () | Per_op _ -> 0. in
  while not (stop ()) do
    op !k timed;
    incr k
  done;
  let cpu =
    match cpu with
    | Per_op _ -> !cpu_on_clock
    | Whole_loop sample -> sample () -. loop0
  in
  { latencies = Array.sub !lat 0 !k; wall = !clock; cpu }

let ops w = Array.length w.latencies

(* The end-to-end metrics every workload reports; [setup] is the median
   of the repeated set-ups. *)
let end_to_end ~setup ~window ~peak_rss ~rounds_per_op ~attempted ~failed =
  let n = float_of_int (ops window) in
  let ms = Array.map (fun s -> s *. 1000.) window.latencies in
  [
    metric "setup_s" "s" (median setup);
    metric "ops_per_s" "1/s" (n /. window.wall);
    metric "latency_p50_ms" "ms" (quantile ms 0.5);
    metric "latency_p90_ms" "ms" (quantile ms 0.9);
    metric "cpu_ms_per_op" "ms" (window.cpu *. 1000. /. n);
    metric "peak_rss_mb" "MB" peak_rss;
    metric "rounds_per_op" "rounds" rounds_per_op;
    metric "success_rate" "ratio"
      (float_of_int (attempted - failed) /. float_of_int attempted);
  ]

(* Repeat a set-up [n] ≥ 1 times and return every duration with the last
   result; [discard] releases each earlier result off the clock. A single
   sub-second set-up is too noisy to gate on, its median is not. *)
let repeat_setup ?(discard = ignore) n f =
  let times = Array.make n 0. in
  let last = ref None in
  for i = 0 to n - 1 do
    Option.iter discard !last;
    let t0 = now () in
    let v = f () in
    times.(i) <- now () -. t0;
    last := Some v
  done;
  (times, Option.get !last)

(* Failures are counted per op id. *)
module Failures = struct
  type t = { ids : (int, string) Hashtbl.t }

  let create () = { ids = Hashtbl.create 16 }

  let add t id why = if not (Hashtbl.mem t.ids id) then Hashtbl.add t.ids id why

  let count t = Hashtbl.length t.ids

  (* The first few failures, for the report. *)
  let sample t =
    Hashtbl.fold (fun id why acc -> (id, why) :: acc) t.ids []
    |> List.sort compare
    |> List.filteri (fun i _ -> i < 5)
    |> List.map (fun (id, why) -> Printf.sprintf "op %d: %s" id why)
end

(* Seeded rhs vectors in [-1, 1). *)
let rhs ~seed n =
  let rng = Prng.create (Int64.of_int seed) in
  Array.init n (fun _ -> Prng.float rng 2. -. 1.)

let pct a b = if b = 0. then 0. else 100. *. a /. b
