(* Shard-aware partitioning of the clique (DESIGN.md §11). Node IDs are
   split into CC_SHARDS contiguous ranges — the same fixed partition the
   domain pool uses ([Pool.chunk_bounds]) — and all the order-sensitive
   logic of multi-process delivery lives here, free of any I/O:

   - the coordinator-side split of a round's outboxes by source shard,
     tagging every message with its global arrival index [gidx] (the
     position the in-process kernels would process it at: src ascending,
     outbox order);
   - the worker-side regrouping of local + peer traffic back into per-source
     outboxes, in exactly that order, so the existing arena kernel delivers
     bit-identical inbox slices;
   - the first-error selection that reproduces the in-process kernels'
     error behavior across process boundaries: of all range and width
     violations found anywhere, the one with the minimal [gidx] wins,
     because that is the message a single-process walk would have tripped
     on first. *)

let env_var = "CC_SHARDS"

let forced : int option ref = ref None

let set_default k = forced := k

let default_shards () =
  match !forced with
  | Some k -> max 1 k
  | None -> (
    match Sys.getenv_opt env_var with
    | Some s -> ( match int_of_string_opt s with Some k when k > 0 -> k | _ -> 1)
    | None -> 1)

(* ------------------------------------------------- supervision policy *)

type policy = Fail | Respawn | Drain

let policy_env = "CC_SHARD_POLICY"

let timeout_env = "CC_SHARD_TIMEOUT"

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "fail" -> Some Fail
  | "respawn" -> Some Respawn
  | "drain" -> Some Drain
  | _ -> None

let policy_to_string = function
  | Fail -> "fail"
  | Respawn -> "respawn"
  | Drain -> "drain"

(* An unrecognized CC_SHARD_POLICY value falls back to fail-stop: the
   conservative default is the one whose behaviour a surprised operator
   already expects from the pre-supervision transport. *)
let default_policy () =
  match Sys.getenv_opt policy_env with
  | Some s -> ( match policy_of_string s with Some p -> p | None -> Fail)
  | None -> Fail

let default_timeout () =
  match Sys.getenv_opt timeout_env with
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some x when x > 0.0 -> x
    | _ -> 30.0)
  | None -> 30.0

exception Shard_down of { shard : int; round : int; during : string }

let () =
  Printexc.register_printer (function
    | Shard_down { shard; round; during } ->
      Some
        (Printf.sprintf
           "Runtime.Shard.Shard_down(shard %d went away during %s at round %d)"
           shard during round)
    | _ -> None)

let bounds ~shards ~n s = Pool.chunk_bounds ~size:shards ~n s

(* owners.(v) = the shard whose [bounds] range contains node v. *)
let owners ~shards ~n =
  let tbl = Array.make n 0 in
  for s = 0 to shards - 1 do
    let lo, hi = bounds ~shards ~n s in
    for v = lo to hi - 1 do
      tbl.(v) <- s
    done
  done;
  tbl

(* Epoch-versioned live partition, the data structure behind the drain
   policy. Starts as the fixed [bounds] partition at epoch 1; every
   supervision event bumps the epoch, and draining a shard merges its
   node range into the nearest live neighbour so the concatenation of
   live ranges always covers [0, n) contiguously — which is what lets a
   survivor's [deliver_local] keep using a plain [Array.sub] slice. *)
module Partition = struct
  type t = {
    n : int;
    ranges : (int * int) array;
    alive : bool array;
    epoch : int;
  }

  let create ~shards ~n =
    if shards < 1 then invalid_arg "Shard.Partition.create: shards < 1";
    {
      n;
      ranges = Array.init shards (fun s -> bounds ~shards ~n s);
      alive = Array.make shards true;
      epoch = 1;
    }

  let shards t = Array.length t.ranges

  let epoch t = t.epoch

  let alive t s = t.alive.(s)

  let bounds t s = t.ranges.(s)

  let live t =
    Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 t.alive

  let live_list t =
    let acc = ref [] in
    for s = Array.length t.alive - 1 downto 0 do
      if t.alive.(s) then acc := s :: !acc
    done;
    !acc

  (* owners.(v) over the live ranges only. With every shard alive this is
     exactly [owners ~shards ~n]. *)
  let owners t =
    let tbl = Array.make t.n (-1) in
    Array.iteri
      (fun s (lo, hi) ->
        if t.alive.(s) then
          for v = lo to hi - 1 do
            tbl.(v) <- s
          done)
      t.ranges;
    tbl

  let bump t = { t with epoch = t.epoch + 1 }

  (* Mark shard [d] dead and hand its node range to the nearest live
     predecessor (extending that range upward) or, when no live shard
     precedes it, the nearest live successor (extending downward). The
     drained shard keeps an empty range at the new boundary, so repeated
     drains preserve the invariant that live ranges concatenate to
     [0, n). Epoch is bumped. Raises [Invalid_argument] if [d] is already
     dead or if it is the last live shard — the caller must check [live]
     and fail the session rather than drain into nothing. *)
  let drain t d =
    if d < 0 || d >= shards t then invalid_arg "Shard.Partition.drain: bad shard";
    if not t.alive.(d) then invalid_arg "Shard.Partition.drain: already dead";
    if live t <= 1 then invalid_arg "Shard.Partition.drain: no survivor";
    let alive = Array.copy t.alive in
    let ranges = Array.copy t.ranges in
    alive.(d) <- false;
    let lo, hi = ranges.(d) in
    if hi > lo then begin
      let pred = ref (-1) in
      for s = d - 1 downto 0 do
        if !pred < 0 && alive.(s) then pred := s
      done;
      if !pred >= 0 then begin
        let plo, _phi = ranges.(!pred) in
        ranges.(!pred) <- (plo, hi);
        ranges.(d) <- (hi, hi)
      end
      else begin
        let succ = ref (-1) in
        for s = shards t - 1 downto d + 1 do
          if alive.(s) then succ := s
        done;
        (* [live t > 1] guarantees a successor exists here. *)
        let _slo, shi = ranges.(!succ) in
        ranges.(!succ) <- (lo, shi);
        ranges.(d) <- (lo, lo)
      end
    end;
    { t with alive; ranges; epoch = t.epoch + 1 }
end

type msg = { gidx : int; src : int; dst : int; pay : int array }

type split = {
  by_src_shard : msg list array;
  expect : bool array array;
  words : int;
  crossings : int;
  messages : int;
  range_error : (int * string) option;
}

let split_exchange ~owner ~shards ~n ~width outboxes =
  Mailbox.check_outboxes ~n outboxes;
  let acc = Array.make shards [] in
  let traffic = Array.make (shards * shards) false in
  let words = ref 0 and crossings = ref 0 and messages = ref 0 in
  let gidx = ref 0 in
  let range_error = ref None in
  (* The walk stops recording at the first out-of-range destination: the
     in-process kernels raise there, so no later message may influence any
     observable outcome (a width overflow after it must lose the min-gidx
     race anyway, and delivery never happens). *)
  (try
     for src = 0 to n - 1 do
       List.iter
         (fun (dst, pay) ->
           if dst < 0 || dst >= n then begin
             range_error :=
               Some (!gidx, Mailbox.out_of_range_message ~src ~dst ~width);
             raise Exit
           end;
           let s = owner.(src) and d = owner.(dst) in
           acc.(s) <- { gidx = !gidx; src; dst; pay } :: acc.(s);
           traffic.((s * shards) + d) <- true;
           if s <> d then incr crossings;
           words := !words + Array.length pay;
           incr messages;
           incr gidx)
         outboxes.(src)
     done
   with Exit -> ());
  let expect =
    Array.init shards (fun d ->
        Array.init shards (fun s -> s <> d && traffic.((s * shards) + d)))
  in
  {
    by_src_shard = Array.map List.rev acc;
    expect;
    words = !words;
    crossings = !crossings;
    messages = !messages;
    range_error = !range_error;
  }

(* Worker side: its own sources' messages regrouped by destination shard,
   preserving gidx order within each group. *)
let partition_by_dst ~owner ~shards msgs =
  let acc = Array.make shards [] in
  List.iter (fun m -> acc.(owner.(m.dst)) <- m :: acc.(owner.(m.dst))) msgs;
  Array.map List.rev acc

let compare_gidx a b = compare a.gidx b.gidx

(* Merge the worker's inbound message lists (each gidx-ascending) into one
   gidx-ascending stream. gidx order equals (src, outbox position) order —
   the exact walk order of [Mailbox.deliver] and [Arena.deliver]. *)
let merge_inbound lists = List.sort compare_gidx (List.concat lists)

type overflow = { gidx : int; src : int; dst : int; words : int; width : int }

(* First width overflow of the worker's inbound stream, in gidx order.
   Every message of an ordered pair (src, dst) lands on dst's shard, so
   per-pair accumulation is complete here and the local first overflow is
   the global first for pairs this worker owns. *)
let first_overflow ~n ~width msgs =
  let pair_words = Hashtbl.create 64 in
  let rec scan = function
    | [] -> None
    | (m : msg) :: rest ->
      let key = (m.src * n) + m.dst in
      let cur = match Hashtbl.find_opt pair_words key with Some c -> c | None -> 0 in
      let total = cur + Array.length m.pay in
      if total > width then
        Some { gidx = m.gidx; src = m.src; dst = m.dst; words = total; width }
      else begin
        Hashtbl.replace pair_words key total;
        scan rest
      end
  in
  scan msgs

type delivery =
  | Inboxes of (int * int array) list array  (** per dst in [lo, hi), arena order *)
  | Overflow of overflow

(* Rebuild per-source outboxes from the gidx-ascending stream and run the
   local arena over them. Restricted to destinations in [lo, hi) the
   rebuilt walk order equals the global walk order, so the arena's inbox
   slices — including their reverse-arrival list order — are bit-identical
   to the slices a single-process delivery would produce. *)
let deliver_local ~arena ~n ~width ~lo ~hi msgs =
  match first_overflow ~n ~width msgs with
  | Some o -> Overflow o
  | None ->
    let outboxes = Array.make n [] in
    List.iter
      (fun (m : msg) -> outboxes.(m.src) <- (m.dst, m.pay) :: outboxes.(m.src))
      msgs;
    Array.iteri (fun s l -> outboxes.(s) <- List.rev l) outboxes;
    let inboxes, _words = Arena.deliver arena ~width outboxes in
    Inboxes (Array.sub inboxes lo (hi - lo))
