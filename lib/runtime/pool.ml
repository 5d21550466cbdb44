(* Persistent domain pools (DESIGN.md §10). One pool per requested size,
   created lazily and kept for the process lifetime; workers park on a
   condition variable between jobs. The job protocol is generation-counted:
   publishing a job bumps [gen], each worker runs it exactly once and
   reports back through [pending]. *)

let default_domains () = (Config.get ()).domains

type shared = {
  m : Mutex.t;
  cv : Condition.t;
  mutable job : int -> int -> unit;
  mutable job_n : int;
  mutable gen : int;
  mutable pending : int;
  mutable failed : exn option;
  mutable stop : bool;
}

type t = {
  size : int;
  shared : shared option;
  domains : unit Domain.t array;
}

let size t = t.size

let chunk_bounds ~size ~n w = (w * n / size, (w + 1) * n / size)

(* Worker [w] of a [size]-wide pool: park until a new generation appears,
   run the fixed chunk, report completion. The first exception of a
   generation wins; the others are dropped (the caller re-raises one). *)
let worker shared ~size w () =
  let last = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock shared.m;
    while (not shared.stop) && shared.gen = !last do
      Condition.wait shared.cv shared.m
    done;
    if shared.stop then begin
      Mutex.unlock shared.m;
      continue := false
    end
    else begin
      last := shared.gen;
      let f = shared.job and n = shared.job_n in
      Mutex.unlock shared.m;
      (try
         let lo, hi = chunk_bounds ~size ~n w in
         f lo hi
       with e ->
         Mutex.lock shared.m;
         if shared.failed = None then shared.failed <- Some e;
         Mutex.unlock shared.m);
      Mutex.lock shared.m;
      shared.pending <- shared.pending - 1;
      if shared.pending = 0 then Condition.broadcast shared.cv;
      Mutex.unlock shared.m
    end
  done

(* Pool registry: only the main domain creates, looks up, or resets pools
   ([get] is called from runtime construction, never from a worker), so
   the plain Hashtbl is race-free; the L11 markers record that invariant
   at each write site. *)
let pools : (int, t) Hashtbl.t = Hashtbl.create 4

let exit_hook_registered = Atomic.make false

let sequential = { size = 1; shared = None; domains = [||] }

(* Stop and join every spawned pool and forget them; the next [get] spawns
   afresh. Registered with [at_exit]. A runtime still holding a shut-down
   pool degrades safely: [run] sees the stop flag and executes the
   identical fixed chunk schedule sequentially. *)
let shutdown_all () =
  Hashtbl.iter
    (fun _ p ->
      match p.shared with
      | None -> ()
      | Some s ->
        Mutex.lock s.m;
        s.stop <- true;
        Condition.broadcast s.cv;
        Mutex.unlock s.m;
        Array.iter Domain.join p.domains)
    pools;
  Hashtbl.reset pools

let spawn k =
  let shared =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      job = (fun _ _ -> ());
      job_n = 0;
      gen = 0;
      pending = 0;
      failed = None;
      stop = false;
    }
  in
  let domains =
    Array.init (k - 1) (fun w -> Domain.spawn (worker shared ~size:k (w + 1)))
  in
  if not (Atomic.exchange exit_hook_registered true) then at_exit shutdown_all;
  { size = k; shared = Some shared; domains }

let get k =
  if k <= 1 then sequential
  else
    match Hashtbl.find_opt pools k with
    | Some p -> p
    | None ->
      let p = spawn k in
      Hashtbl.replace pools k p; (* cc_lint: allow L11 — pools are created on the main domain only *)
      p

(* Publish a job generation and run chunk 0 on the caller; entered with
   [s.m] held. *)
let run_parallel s ~size:k ~n f =
    s.job <- f;
    s.job_n <- n;
    s.pending <- k - 1;
    s.failed <- None;
    s.gen <- s.gen + 1;
    Condition.broadcast s.cv;
    Mutex.unlock s.m;
    let caller_exn =
      let lo, hi = chunk_bounds ~size:k ~n 0 in
      try
        f lo hi;
        None
      with e -> Some e
    in
    Mutex.lock s.m;
    while s.pending > 0 do
      Condition.wait s.cv s.m
    done;
    let worker_exn = s.failed in
    Mutex.unlock s.m;
    (match caller_exn with Some e -> raise e | None -> ());
    (match worker_exn with Some e -> raise e | None -> ())

let run t ~n f =
  match t.shared with
  | None -> f 0 n
  | Some s ->
    let k = t.size in
    Mutex.lock s.m;
    if s.stop then begin
      (* The pool was shut down after this handle was captured (e.g. by
         the at-exit hook, or an explicit [shutdown_all]): run the same
         fixed chunk schedule sequentially — bit-identical results, no
         domains involved. *)
      Mutex.unlock s.m;
      for w = 0 to k - 1 do
        let lo, hi = chunk_bounds ~size:k ~n w in
        f lo hi
      done
    end
    else run_parallel s ~size:k ~n f
