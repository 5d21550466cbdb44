(* A small thread-safe LRU keyed by fingerprint strings.

   Two-level locking: the table mutex only covers lookup/insert/evict
   bookkeeping (never a build or a solve), while each entry carries its
   own mutex serializing use of the artifact it holds — prepared solver
   handles own mutable workspaces, so two jobs hitting the same graph
   must take turns, but jobs on different graphs proceed in parallel.

   Eviction drops the least-recently-used entry from the table only; a
   worker still holding the evicted entry keeps a valid reference and
   finishes normally. An entry makes room for itself only once its build
   has succeeded, so a request that cannot be built evicts nothing. *)

type 'v entry = {
  key : string;
  lock : Mutex.t;
  mutable value : 'v option;  (* None until the first holder builds it *)
  mutable last_used : int;
}

type 'v t = {
  m : Mutex.t;
  tbl : (string, 'v entry) Hashtbl.t;
  cap : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~cap =
  {
    m = Mutex.create ();
    tbl = Hashtbl.create 16;
    cap = max cap 1;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun _ e ->
      match !victim with
      | None -> victim := Some e
      | Some v -> if e.last_used < v.last_used then victim := Some e)
    t.tbl;
  match !victim with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.tbl e.key;
    t.evictions <- t.evictions + 1

let find_or_add t key =
  Mutex.lock t.m;
  t.tick <- t.tick + 1;
  let tick = t.tick in
  let hit, entry =
    match Hashtbl.find_opt t.tbl key with
    | Some e ->
      e.last_used <- tick;
      t.hits <- t.hits + 1;
      (true, e)
    | None ->
      let e =
        { key; lock = Mutex.create (); value = None; last_used = tick }
      in
      Hashtbl.replace t.tbl key e;
      t.misses <- t.misses + 1;
      (false, e)
  in
  Mutex.unlock t.m;
  (hit, entry)

(* Drop [entry] from the table unless it has been replaced there. *)
let forget t entry =
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.tbl entry.key with
  | Some e when e == entry -> Hashtbl.remove t.tbl entry.key
  | Some _ | None -> ());
  Mutex.unlock t.m

(* Evict least-recently-used entries until at most [cap] remain. *)
let make_room t =
  Mutex.lock t.m;
  while Hashtbl.length t.tbl > t.cap do
    evict_lru t
  done;
  Mutex.unlock t.m

let use t key ~build f =
  let hit, entry = find_or_add t key in
  Mutex.lock entry.lock;
  match
    let v =
      match entry.value with
      | Some v -> v
      | None -> (
        match build () with
        | v ->
          entry.value <- Some v;
          make_room t;
          v
        | exception e ->
          forget t entry;
          raise e)
    in
    f v
  with
  | result ->
    Mutex.unlock entry.lock;
    (result, hit)
  | exception e ->
    Mutex.unlock entry.lock;
    raise e

type stats = { entries : int; hits : int; misses : int; evictions : int }

let stats t =
  Mutex.lock t.m;
  let s =
    {
      entries = Hashtbl.length t.tbl;
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
    }
  in
  Mutex.unlock t.m;
  s
