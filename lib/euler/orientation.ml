type selector = Cole_vishkin | Sampling of int64

type ring_edge = { edge : int; along : bool }

type result = {
  orientation : bool array;
  rounds : int;
  rings : int;
  iterations : int;
  coloring_rounds : int;
  phase_rounds : (string * int) list;
}

let is_eulerian g =
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    if Graph.degree g v land 1 = 1 then ok := false
  done;
  !ok

(* Step 1 (internal): each vertex pairs its incident edges in
   [Graph.adj] order; following the pairs decomposes the edge multiset into
   closed trails. An edge is paired once at each of its two ends, so the
   pairs live in two arrays: [at_u.(e)] is the edge paired with [e] at e's
   u end, [at_v.(e)] the one at its v end. The ends of an edge differ (no
   self-loops), so parallel edges are told apart by edge id alone. *)
let build_trails g =
  let n = Graph.n g in
  let m = Graph.m g in
  let at_u = Array.make m (-1) and at_v = Array.make m (-1) in
  let pair_at v a b =
    if (Graph.edge g a).Graph.u = v then at_u.(a) <- b else at_v.(a) <- b
  in
  for v = 0 to n - 1 do
    let rec pair_up = function
      | [] -> ()
      | [ _ ] -> invalid_arg "Orientation: odd degree"
      | (_, a) :: (_, b) :: rest ->
        pair_at v a b;
        pair_at v b a;
        pair_up rest
    in
    pair_up (Graph.adj g v)
  done;
  let used = Array.make m false in
  let trails = ref [] in
  for e0 = 0 to m - 1 do
    if not used.(e0) then begin
      let start_edge = Graph.edge g e0 in
      let trail = ref [] in
      let cur = ref e0 in
      let from = ref start_edge.Graph.u in
      let closed = ref false in
      while not !closed do
        used.(!cur) <- true;
        let e = Graph.edge g !cur in
        let along = e.Graph.u = !from in
        trail := { edge = !cur; along } :: !trail;
        (* The trail arrives at v when it runs along the edge, at u
           otherwise, and leaves by the partner paired there. *)
        let arrive = if along then e.Graph.v else e.Graph.u in
        let nxt = if along then at_v.(!cur) else at_u.(!cur) in
        if used.(nxt) then begin
          (* The trail can only close at its start pair. *)
          assert (nxt = e0 && arrive = start_edge.Graph.u);
          closed := true
        end
        else begin
          cur := nxt;
          from := arrive
        end
      done;
      trails := List.rev !trail :: !trails
    end
  done;
  List.rev !trails

(* One contraction iteration over all rings simultaneously: 3-color the
   active positions, keep the higher-ID endpoint of each matched link.
   With [Sampling], survivors are chosen by coin flips instead (the paper's
   randomized remark: drops the log* n coloring rounds).

   The participants are the active positions of rings with more than one
   active position, in increasing order; a participant's ID is its
   position. One pass over all positions collects them into [slots] and
   records each one's slot in [index] (both of length [total], allocated
   once per orientation; only the participants' entries are read). *)
let contract_once ?rng ~succ ~pred ~active ~ring_of ~active_per_ring ~slots
    ~index () =
  let k = ref 0 in
  for pos = 0 to Array.length succ - 1 do
    if active.(pos) && active_per_ring.(ring_of.(pos)) > 1 then begin
      slots.(!k) <- pos;
      index.(pos) <- !k;
      incr k
    end
  done;
  let k = !k in
  let positions = Array.sub slots 0 k in
  (* Positions are never written below, so they serve as the IDs. *)
  let ids = positions in
  let s = Array.map (fun q -> index.(succ.(q))) positions in
  let p = Array.map (fun q -> index.(pred.(q))) positions in
  let keep = Array.make k false in
  let cv_rounds =
    match rng with
    | None ->
      (* The coloring chain runs as real node programs over the active
         positions; only its measured round count flows back (charged into
         the orientation's ledger by the caller). *)
      let colors, cv_rounds =
        Clique.Kernel.with_clique k (fun rt ->
            Clique.Kernel.Sim_programs.three_color rt ~ids ~succ:s ~pred:p)
      in
      let matched =
        Coloring.maximal_matching_on_cycles ~colors ~succ:s ~pred:p
      in
      (* Mark the higher-ID endpoint of every matched link; everyone else is
         deactivated and bridged over. *)
      Array.iteri
        (fun i m ->
          if m then begin
            let j = s.(i) in
            if ids.(i) > ids.(j) then keep.(i) <- true else keep.(j) <- true
          end)
        matched;
      cv_rounds
    | Some rng ->
      (* Randomized selection: one coin flip each, zero coloring rounds.
         Guarantee a survivor per ring by retaining the max-ID position of
         any ring the coins would wipe out. Every decision below is per
         ring, so arrays indexed by ring id hold it ([-1]: no slot). *)
      Array.iteri (fun i _ -> keep.(i) <- Prng.bool rng) positions;
      let rings = Array.length active_per_ring in
      let best = Array.make rings (-1) in
      let alive = Array.make rings false in
      Array.iteri
        (fun i pos ->
          let r = ring_of.(pos) in
          if best.(r) < 0 || ids.(best.(r)) < ids.(i) then best.(r) <- i;
          if keep.(i) then alive.(r) <- true)
        positions;
      Array.iteri
        (fun r i -> if i >= 0 && not alive.(r) then keep.(i) <- true)
        best;
      (* Also never keep a whole ring intact forever: if every position of a
         ring survived the flips, drop its minimum-ID one. *)
      let total = Array.make rings 0 in
      let kept = Array.make rings 0 in
      let lowest = Array.make rings (-1) in
      Array.iteri
        (fun i pos ->
          let r = ring_of.(pos) in
          total.(r) <- total.(r) + 1;
          if keep.(i) then kept.(r) <- kept.(r) + 1;
          if lowest.(r) < 0 || ids.(lowest.(r)) > ids.(i) then lowest.(r) <- i)
        positions;
      Array.iteri
        (fun r tot ->
          if tot > 1 && kept.(r) = tot then keep.(lowest.(r)) <- false)
        total;
      0
  in
  Array.iteri (fun slot p -> if not keep.(slot) then active.(p) <- false)
    positions;
  (* Rebuild succ/pred chains among survivors by walking each bridged run
     (this is the 4-round both-directions forwarding, delivered by Lenzen
     routing in the clique). *)
  Array.iteri
    (fun slot pos ->
      if keep.(slot) then begin
        let q = ref succ.(pos) in
        while not active.(!q) do
          q := succ.(!q)
        done;
        succ.(pos) <- !q;
        pred.(!q) <- pos
      end)
    positions;
  cv_rounds

let orient ?(selector = Cole_vishkin) ?(choose = fun (_ : ring_edge list) -> true) g =
  if not (is_eulerian g) then
    invalid_arg "Orientation.orient: graph has an odd-degree vertex";
  let m = Graph.m g in
  let trails = build_trails g in
  let orientation = Array.make m true in
  if m = 0 then
    {
      orientation;
      rounds = 0;
      rings = 0;
      iterations = 0;
      coloring_rounds = 0;
      phase_rounds = [];
    }
  else begin
    (* Flatten the trails into global positions. *)
    let total = List.fold_left (fun a t -> a + List.length t) 0 trails in
    let succ = Array.make total 0 in
    let pred = Array.make total 0 in
    let ring_of = Array.make total 0 in
    let ring_sizes = Array.make (List.length trails) 0 in
    let content = Array.make total { edge = 0; along = true } in
    let offset = ref 0 in
    List.iteri
      (fun r trail ->
        let len = List.length trail in
        ring_sizes.(r) <- len;
        List.iteri
          (fun i re ->
            let pos = !offset + i in
            content.(pos) <- re;
            ring_of.(pos) <- r;
            succ.(pos) <- !offset + ((i + 1) mod len);
            pred.(pos) <- !offset + ((i + len - 1) mod len))
          trail;
        offset := !offset + len)
      trails;
    let rng =
      match selector with
      | Cole_vishkin -> None
      | Sampling seed -> Some (Prng.create seed)
    in
    let ledger = Runtime.Cost.create () in
    let active = Array.make total true in
    let active_per_ring = Array.copy ring_sizes in
    let slots = Array.make total 0 and index = Array.make total 0 in
    let iterations = ref 0 in
    let coloring_rounds = ref 0 in
    let forward_rounds = ref 0 in
    let needs_work () = Array.exists (fun c -> c > 1) active_per_ring in
    while needs_work () do
      incr iterations;
      (* Rings already down to a single survivor are done; only multi-active
         rings participate (a singleton has succ = itself and no link to
         color). *)
      let cv =
        contract_once ?rng ~succ ~pred ~active ~ring_of ~active_per_ring
          ~slots ~index ()
      in
      coloring_rounds := !coloring_rounds + cv;
      (* CV exchange + the constant-round bridged forwarding via routing. *)
      Runtime.Cost.charge ledger ~phase:"coloring" cv;
      Runtime.Cost.charge ledger ~phase:"bridge"
        Runtime.Cost.lenzen_routing_rounds;
      forward_rounds := !forward_rounds + cv + Runtime.Cost.lenzen_routing_rounds;
      Array.fill active_per_ring 0 (Array.length active_per_ring) 0;
      Array.iteri
        (fun pos a ->
          if a then
            active_per_ring.(ring_of.(pos)) <-
              active_per_ring.(ring_of.(pos)) + 1)
        active
    done;
    (* Each surviving leader decides its ring's direction; the reverse phase
       replays the contraction to spread the decision. *)
    let rings = List.length trails in
    let ring_members = Array.make rings [] in
    for pos = total - 1 downto 0 do
      ring_members.(ring_of.(pos)) <- content.(pos) :: ring_members.(ring_of.(pos))
    done;
    for r = 0 to rings - 1 do
      let keep_direction = choose ring_members.(r) in
      List.iter
        (fun re ->
          orientation.(re.edge) <- (if keep_direction then re.along else not re.along))
        ring_members.(r)
    done;
    (* Spreading the decision replays the contraction backwards (same round
       count as the forward phase), plus the O(1)-round leader election. *)
    Runtime.Cost.charge ledger ~phase:"reverse" !forward_rounds;
    Runtime.Cost.charge ledger ~phase:"decision" 4;
    {
      orientation;
      rounds = Runtime.Cost.rounds ledger;
      rings;
      iterations = !iterations;
      coloring_rounds = !coloring_rounds;
      phase_rounds = Runtime.Cost.phases ledger;
    }
  end

let check g orientation =
  let n = Graph.n g in
  let balance = Array.make n 0 in
  Array.iteri
    (fun id e ->
      let u, v =
        if orientation.(id) then (e.Graph.u, e.Graph.v)
        else (e.Graph.v, e.Graph.u)
      in
      balance.(u) <- balance.(u) + 1;
      balance.(v) <- balance.(v) - 1)
    (Graph.edges g);
  Array.for_all (( = ) 0) balance

let rounds_reference ~n =
  let logn = Runtime.Cost.log2_ceil (max n 2) in
  let logstar = Coloring.log_star (max n 2) in
  2 * logn * (logstar + 5 + Runtime.Cost.lenzen_routing_rounds)
