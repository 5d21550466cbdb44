(* The wire subsystem: framing round-trips, corruption rejection, the
   writer/reader codec, links over real descriptors, and the pure shard
   partitioning layer ([Runtime.Shard]) that the socket transport builds
   on. Everything here is single-process; the multi-process legs live in
   test_socket.ml and test_kernel_equiv.ml. *)

module Frame = Wire.Frame
module Link = Wire.Link
module Fnv = Wire.Fnv
module Shard = Runtime.Shard
module M = Runtime.Mailbox

let frame_fields (f : Frame.t) =
  (f.Frame.kind, f.Frame.src, f.Frame.dst, f.Frame.seq, f.Frame.epoch,
   Bytes.to_string f.Frame.payload)

(* ------------------------------------------------------------- framing *)

let test_frame_round_trip_exact () =
  let f =
    { Frame.kind = 3; src = -1; dst = 7; seq = 123456789; epoch = 5;
      payload = Bytes.of_string "some payload bytes" }
  in
  let b = Frame.encode f in
  Alcotest.(check int)
    "encoded length is header + payload"
    (Frame.header_bytes + 18) (Bytes.length b);
  let g = Frame.decode b in
  Alcotest.(check (pair (pair int int) (pair int string)))
    "fields survive" ((3, -1), (7, "some payload bytes"))
    ((g.Frame.kind, g.Frame.src), (g.Frame.dst, Bytes.to_string g.Frame.payload));
  Alcotest.(check int) "seq survives" 123456789 g.Frame.seq;
  Alcotest.(check int) "epoch survives" 5 g.Frame.epoch

let expect_malformed what f =
  Alcotest.(check bool) what true
    (match f () with
    | _ -> false
    | exception Frame.Malformed _ -> true)

(* Every byte of the magic, version, length, and checksum fields — and of
   the payload — is load-bearing: flipping it must raise Malformed. (The
   kind/src/dst/seq/epoch fields are not self-checked; the payload
   checksum is the integrity boundary.) *)
let test_frame_corruption_detected () =
  let f =
    { Frame.kind = 5; src = 2; dst = 0; seq = 42; epoch = 1;
      payload = Bytes.of_string "abcdefgh" }
  in
  let b = Frame.encode f in
  let checked =
    [ 0; 1; 2 ]
    @ List.init 12 (fun i -> 24 + i)
    @ List.init (Bytes.length b - Frame.header_bytes) (fun i ->
          Frame.header_bytes + i)
  in
  List.iter
    (fun pos ->
      let c = Bytes.copy b in
      Bytes.set c pos (Char.chr (Char.code (Bytes.get c pos) lxor 0x41));
      expect_malformed
        (Printf.sprintf "flip at byte %d detected" pos)
        (fun () -> Frame.decode c))
    checked

let test_frame_truncation_detected () =
  let f =
    { Frame.kind = 1; src = 0; dst = 1; seq = 7; epoch = 1;
      payload = Bytes.of_string "0123456789" }
  in
  let b = Frame.encode f in
  expect_malformed "truncated buffer" (fun () ->
      Frame.decode (Bytes.sub b 0 (Bytes.length b - 3)));
  expect_malformed "short header" (fun () ->
      Frame.decode_header (Bytes.sub b 0 8))

let test_reader_bounds () =
  let w = Frame.Writer.create () in
  Frame.Writer.int w 99;
  Frame.Writer.string w "tail";
  let b = Frame.Writer.contents w in
  let r = Frame.Reader.of_bytes b in
  Alcotest.(check int) "int back" 99 (Frame.Reader.int r);
  Alcotest.(check string) "string back" "tail" (Frame.Reader.string r);
  Alcotest.(check bool) "at end" true (Frame.Reader.at_end r);
  expect_malformed "reading past the end" (fun () -> Frame.Reader.int r)

let test_fnv_pinned () =
  (* The FNV-1a 64 basis and prime, and the classic single-byte vector:
     hash("a") = offset xor 0x61 times prime. *)
  Alcotest.(check int64) "offset basis" 0xcbf29ce484222325L Fnv.offset;
  Alcotest.(check int64) "prime" 0x100000001b3L Fnv.prime;
  Alcotest.(check int64) "fnv1a(\"a\")" 0xaf63dc4c8601ec8cL
    (Fnv.add_byte Fnv.offset (Char.code 'a'));
  Alcotest.(check bool) "string terminator splits"
    false
    (Fnv.add_string (Fnv.add_string Fnv.offset "ab") "c"
    = Fnv.add_string (Fnv.add_string Fnv.offset "a") "bc")

let qcheck_frame_tests =
  let open QCheck in
  [
    Test.make ~name:"frame encode/decode round-trips" ~count:200
      (quad (int_range 0 255) (int_range (-1) 61) small_nat
         (string_of_size (Gen.int_range 0 300)))
      (fun (kind, src, seq, payload) ->
        let f =
          { Frame.kind; src; dst = (src + 5) mod 62; seq;
            epoch = seq mod 97; payload = Bytes.of_string payload }
        in
        frame_fields (Frame.decode (Frame.encode f)) = frame_fields f);
    Test.make ~name:"writer/reader codec round-trips" ~count:200
      (list (pair int (string_of_size (Gen.int_range 0 40))))
      (fun items ->
        let w = Frame.Writer.create () in
        List.iter
          (fun (i, s) ->
            Frame.Writer.int w i;
            Frame.Writer.string w s)
          items;
        let r = Frame.Reader.of_bytes (Frame.Writer.contents w) in
        let back =
          List.map
            (fun _ ->
              (* explicit lets: tuple components evaluate right-to-left *)
              let i = Frame.Reader.int r in
              let s = Frame.Reader.string r in
              (i, s))
            items
        in
        back = items && Frame.Reader.at_end r);
  ]

(* --------------------------------------------------------------- links *)

let send_recv what a b =
  let f =
    { Frame.kind = 2; src = 0; dst = 1; seq = 11; epoch = 1;
      payload = Bytes.of_string "across the wire" }
  in
  Link.send a f;
  let g = Link.recv b in
  Alcotest.(check string) what "across the wire" (Bytes.to_string g.Frame.payload);
  Alcotest.(check int) "one frame sent" 1 (Link.frames_sent a);
  Alcotest.(check int) "one frame received" 1 (Link.frames_recv b);
  Alcotest.(check int) "bytes counted"
    (Frame.header_bytes + 15) (Link.bytes_sent a)

let test_link_socketpair () =
  let a, b = Link.pair ~peer:"unit" () in
  send_recv "unix pair payload" a b;
  Link.close a;
  Alcotest.(check bool) "EOF raises Closed" true
    (match Link.recv b with
    | _ -> false
    | exception Link.Closed _ -> true);
  Link.close b;
  Link.close b (* idempotent *)

(* Listen on [addr], dial the address the listener reports, and move one
   frame across; the listener's socket file (if any) is removed after. *)
let round_trip what addr =
  let lsock, bound = Link.listen (Link.address addr) in
  let a = Link.dial ~peer:what bound in
  let b = Link.of_fd ~peer:what (Link.accept lsock) in
  send_recv what a b;
  Link.close a;
  Link.close b;
  (try Unix.close lsock with Unix.Unix_error _ -> ());
  Link.unlink bound;
  Link.to_string bound

let test_link_tcp () =
  let bound = round_trip "tcp payload" "127.0.0.1:0" in
  Alcotest.(check bool) "port 0 resolved" true
    (match Link.address bound with
    | Link.Tcp ("127.0.0.1", port) -> port > 0
    | _ -> false)

(* One grammar: unix:PATH, tcp:HOST:PORT and bare HOST:PORT all listen
   and dial; listen hands back a canonical address dial accepts; anything
   else is an Invalid_argument that names the address. *)
let test_link_address_grammar () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cc-wire-test-%d.sock" (Unix.getpid ()))
  in
  let bound = round_trip "unix payload" ("unix:" ^ path) in
  Alcotest.(check string) "unix address is already canonical"
    ("unix:" ^ path) bound;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  List.iter
    (fun addr ->
      let bound = round_trip addr addr in
      Alcotest.(check bool) (addr ^ " binds tcp:127.0.0.1:PORT") true
        (String.starts_with ~prefix:"tcp:127.0.0.1:" bound
        && bound <> "tcp:127.0.0.1:0"))
    [ "tcp:127.0.0.1:0"; "127.0.0.1:0" ];
  List.iter
    (fun addr ->
      Alcotest.(check bool) (Printf.sprintf "%S refused by name" addr) true
        (match Link.address addr with
        | _ -> false
        | exception Invalid_argument msg ->
          let q = Printf.sprintf "%S" addr in
          let n = String.length msg and k = String.length q in
          let rec go i = i + k <= n && (String.sub msg i k = q || go (i + 1)) in
          go 0))
    [ "unix:"; "tcp:127.0.0.1"; "localhost"; "127.0.0.1:http"; ":80";
      "tcp:127.0.0.1:70000" ]

(* A bounded recv on a silent link raises Timeout at the deadline instead
   of blocking — the primitive every supervised wait builds on. *)
let test_link_recv_deadline () =
  let a, b = Link.pair ~peer:"deadline" () in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "silent peer times out" true
    (match Link.recv ~deadline:(t0 +. 0.05) b with
    | _ -> false
    | exception Link.Timeout _ -> true);
  Alcotest.(check bool) "deadline respected" true
    (Unix.gettimeofday () -. t0 >= 0.05);
  (* a deadline in the future does not disturb a normal receive *)
  Link.send a
    { Frame.kind = 2; src = 0; dst = 1; seq = 1; epoch = 1;
      payload = Bytes.of_string "late but present" };
  let g = Link.recv ~deadline:(Unix.gettimeofday () +. 5.0) b in
  Alcotest.(check string) "frame still delivered" "late but present"
    (Bytes.to_string g.Frame.payload);
  Link.close a;
  Link.close b

(* A payload of [len] bytes, each [c]. *)
let filled_frame ~seq ~len c =
  { Frame.kind = 0x30; src = 0; dst = 0; seq; epoch = 0;
    payload = Bytes.make len c }

(* Direct major-heap allocations so far: a block too large for the minor
   heap goes straight to the major one, and promotion is not allocation. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* The in-place receive reuses its buffer: over 1,000 4-KB frames the
   major heap sees new words only on the call that grows the buffer's
   storage, and every payload arrives verified in that storage. Native
   only, like the other word-counting tests. *)
let test_link_recv_into_reuses () =
  if Sys.backend_type = Sys.Native then begin
    let a, b = Link.pair ~peer:"in-place" () in
    let buf = Link.buffer ~max_bytes:(64 * 1024) in
    let len = 4096 in
    let storage = ref Bytes.empty in
    let growths = ref 0 and stray = ref 0. in
    for i = 1 to 1000 do
      let c = Char.chr (i land 0xff) in
      Link.send a (filled_frame ~seq:i ~len c);
      let w0 = direct_major_words () in
      let received = Link.recv_into b buf in
      let words = direct_major_words () -. w0 in
      match received with
      | Link.Payload (hdr, data) ->
        if data != !storage then begin
          incr growths;
          storage := data
        end
        else stray := !stray +. Float.max 0. words;
        if hdr.Frame.seq <> i || hdr.Frame.len <> len
           || Bytes.get data 0 <> c || Bytes.get data (len - 1) <> c
        then Alcotest.failf "frame %d arrived wrong" i
      | Link.Oversized _ -> Alcotest.failf "frame %d refused" i
    done;
    Alcotest.(check int) "the storage grew once, for the first frame" 1
      !growths;
    Alcotest.(check (float 0.)) "no major words without a growth" 0. !stray;
    Alcotest.(check int) "frames counted" 1000 (Link.frames_recv b);
    Link.close a;
    Link.close b
  end

(* The buffer keeps at most 64 KiB: a larger payload within [max_bytes]
   arrives in storage of its own, and the next small payload lands in the
   storage kept from before, so a connection does not hold on to its
   largest request. *)
let test_link_recv_into_keeps_64k () =
  let a, b = Link.pair ~peer:"kept" () in
  let buf = Link.buffer ~max_bytes:(1024 * 1024) in
  let receive ~seq ~len c =
    (* sent from another domain: a payload this size may not fit the
       socket's buffer *)
    let sender =
      Domain.spawn (fun () -> Link.send a (filled_frame ~seq ~len c))
    in
    let received = Link.recv_into b buf in
    Domain.join sender;
    match received with
    | Link.Payload (hdr, data) ->
      Alcotest.(check int) "in step" seq hdr.Frame.seq;
      Alcotest.(check string) "payload" (String.make len c)
        (Bytes.sub_string data 0 len);
      data
    | Link.Oversized _ -> Alcotest.failf "frame %d refused" seq
  in
  let small = receive ~seq:1 ~len:4096 's' in
  let large = receive ~seq:2 ~len:(200 * 1024) 'l' in
  Alcotest.(check bool) "the large payload has storage of its own" true
    (large != small);
  Alcotest.(check bool) "and the small storage was kept" true
    (receive ~seq:3 ~len:4096 't' == small);
  let full = receive ~seq:4 ~len:(64 * 1024) 'k' in
  Alcotest.(check bool) "64 KiB is still kept" true
    (receive ~seq:5 ~len:100 'u' == full);
  Link.close a;
  Link.close b

(* A payload over [max_bytes] is drained through the buffer, which does
   not grow for it, and reported; the next frame on the same link is
   received whole. A payload that fails its checksum in the buffer is
   Malformed, as with [recv]. *)
let test_link_recv_into_oversized () =
  let a, b = Link.pair ~peer:"oversized" () in
  let buf = Link.buffer ~max_bytes:256 in
  Link.send a (filled_frame ~seq:1 ~len:(64 * 1024) 'x');
  Link.send a (filled_frame ~seq:2 ~len:200 'y');
  (match Link.recv_into b buf with
  | Link.Oversized hdr ->
    Alcotest.(check int) "announced length" (64 * 1024) hdr.Frame.len
  | Link.Payload _ -> Alcotest.fail "a 64-KB payload fit a 256-byte bound");
  (match Link.recv_into b buf with
  | Link.Payload (hdr, data) ->
    Alcotest.(check int) "next frame in step" 2 hdr.Frame.seq;
    Alcotest.(check bool) "storage within max_bytes" true
      (Bytes.length data <= 256);
    Alcotest.(check string) "next payload" (String.make 200 'y')
      (Bytes.sub_string data 0 hdr.Frame.len)
  | Link.Oversized _ -> Alcotest.fail "a 200-byte payload refused");
  let raw = Frame.encode (filled_frame ~seq:3 ~len:100 'z') in
  Bytes.set raw (Bytes.length raw - 1) 'Z';
  let written =
    Unix.write (Link.fd a) raw 0 (Bytes.length raw) (* cc_lint: allow L9 *)
  in
  Alcotest.(check int) "corrupt frame written" (Bytes.length raw) written;
  Alcotest.(check bool) "checksum verified in place" true
    (match Link.recv_into b buf with
    | _ -> false
    | exception Frame.Malformed _ -> true);
  Link.close a;
  Link.close b

(* ------------------------------------------------- shard partitioning *)

let owners_consistent ~shards ~n =
  let owner = Shard.owners ~shards ~n in
  for s = 0 to shards - 1 do
    let lo, hi = Shard.bounds ~shards ~n s in
    for v = lo to hi - 1 do
      Alcotest.(check int)
        (Printf.sprintf "owner of %d (k=%d, n=%d)" v shards n)
        s owner.(v)
    done
  done

let test_owners () =
  List.iter
    (fun (shards, n) -> owners_consistent ~shards ~n)
    [ (1, 5); (2, 8); (3, 10); (4, 4); (4, 23) ]

(* The edge cases the drain reassignment logic leans on: ranges are
   monotone and concatenate to [0, n) for every shard count, including
   n = 0 (all empty) and n < shards (exactly n singletons). *)
let test_bounds_edge_cases () =
  List.iter
    (fun (shards, n) ->
      let cursor = ref 0 in
      for s = 0 to shards - 1 do
        let lo, hi = Shard.bounds ~shards ~n s in
        Alcotest.(check int)
          (Printf.sprintf "contiguous at shard %d (k=%d, n=%d)" s shards n)
          !cursor lo;
        Alcotest.(check bool) "non-negative range" true (hi >= lo);
        cursor := hi
      done;
      Alcotest.(check int)
        (Printf.sprintf "ranges cover [0,n) (k=%d, n=%d)" shards n)
        n !cursor;
      let owner = Shard.owners ~shards ~n in
      Alcotest.(check int) "owners length" n (Array.length owner))
    [ (1, 0); (4, 0); (3, 2); (8, 3); (5, 5); (7, 100) ];
  (* n < shards: exactly n singleton ranges, the rest empty *)
  let shards = 8 and n = 3 in
  let singletons = ref 0 in
  for s = 0 to shards - 1 do
    let lo, hi = Shard.bounds ~shards ~n s in
    if hi > lo then begin
      Alcotest.(check int) "singleton range" 1 (hi - lo);
      incr singletons
    end
  done;
  Alcotest.(check int) "exactly n singletons" n !singletons;
  (* every owner is one of the singleton shards, in ascending order *)
  let owner = Shard.owners ~shards ~n in
  Array.iteri
    (fun v s ->
      let lo, hi = Shard.bounds ~shards ~n s in
      Alcotest.(check (pair int int))
        (Printf.sprintf "node %d sits in its owner's range" v)
        (v, v + 1) (lo, hi))
    owner;
  Alcotest.(check bool) "owners ascend" true
    (owner.(0) < owner.(1) && owner.(1) < owner.(2))

(* The epoch-versioned live partition behind the Drain policy. *)
let test_partition_drain () =
  let p = Shard.Partition.create ~shards:4 ~n:20 in
  Alcotest.(check int) "starts at epoch 1" 1 (Shard.Partition.epoch p);
  Alcotest.(check int) "all live" 4 (Shard.Partition.live p);
  Alcotest.(check (array int)) "owners match the static partition"
    (Shard.owners ~shards:4 ~n:20)
    (Shard.Partition.owners p);
  (* drain a middle shard: its range merges into the live predecessor *)
  let p1 = Shard.Partition.drain p 2 in
  Alcotest.(check int) "epoch bumped" 2 (Shard.Partition.epoch p1);
  Alcotest.(check int) "one fewer live" 3 (Shard.Partition.live p1);
  Alcotest.(check bool) "shard 2 dead" false (Shard.Partition.alive p1 2);
  let lo1, hi1 = Shard.Partition.bounds p1 1 in
  let _, hi2_old = Shard.Partition.bounds p 2 in
  Alcotest.(check (pair int int)) "predecessor absorbs the range"
    (fst (Shard.Partition.bounds p 1), hi2_old)
    (lo1, hi1);
  let d2lo, d2hi = Shard.Partition.bounds p1 2 in
  Alcotest.(check int) "drained range empty" 0 (d2hi - d2lo);
  (* live ranges still concatenate to [0, n) *)
  let covered =
    List.fold_left
      (fun acc s ->
        let lo, hi = Shard.Partition.bounds p1 s in
        acc + (hi - lo))
      0
      (Shard.Partition.live_list p1)
  in
  Alcotest.(check int) "live ranges cover every node" 20 covered;
  Array.iteri
    (fun v s ->
      Alcotest.(check bool)
        (Printf.sprintf "owner of %d is live" v)
        true
        (Shard.Partition.alive p1 s))
    (Shard.Partition.owners p1);
  (* draining shard 0 merges forward into the live successor *)
  let p2 = Shard.Partition.drain p1 0 in
  let lo, _ = Shard.Partition.bounds p2 1 in
  Alcotest.(check int) "successor absorbs a head drain" 0 lo;
  (* double drain and the last-survivor guard are rejected *)
  Alcotest.(check bool) "double drain rejected" true
    (match Shard.Partition.drain p2 0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let p3 = Shard.Partition.drain p2 3 in
  Alcotest.(check int) "one survivor left" 1 (Shard.Partition.live p3);
  Alcotest.(check (pair int int)) "survivor owns everything" (0, 20)
    (Shard.Partition.bounds p3 1);
  Alcotest.(check bool) "last survivor cannot drain" true
    (match Shard.Partition.drain p3 1 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* bump only moves the epoch *)
  let b = Shard.Partition.bump p3 in
  Alcotest.(check int) "bump increments epoch"
    (Shard.Partition.epoch p3 + 1)
    (Shard.Partition.epoch b);
  Alcotest.(check int) "bump preserves live count" 1 (Shard.Partition.live b)

(* n < shards leaves some shards empty from the start; draining an empty
   shard and draining around empties must keep the cover exact. *)
let test_partition_drain_empty_ranges () =
  let p = Shard.Partition.create ~shards:5 ~n:3 in
  (* with n=3 over 5 shards, shard 0 is empty (owners are a subset) *)
  let e0lo, e0hi = Shard.Partition.bounds p 0 in
  Alcotest.(check int) "shard 0 starts empty" 0 (e0hi - e0lo);
  let p1 = Shard.Partition.drain p 0 in
  (* empty shard drained: nothing to merge, cover unchanged *)
  Alcotest.(check (array int)) "owners unchanged by empty drain"
    (Shard.Partition.owners p) (Shard.Partition.owners p1);
  let p2 = Shard.Partition.drain p1 1 in
  let covered =
    List.fold_left
      (fun acc s ->
        let lo, hi = Shard.Partition.bounds p2 s in
        acc + (hi - lo))
      0
      (Shard.Partition.live_list p2)
  in
  Alcotest.(check int) "cover exact after singleton drain" 3 covered;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "every owner live" true
        (Shard.Partition.alive p2 s))
    (Shard.Partition.owners p2)

(* A deterministic mixed workload with cross-shard traffic, repeated
   pairs, self-messages, and empty outboxes. *)
let workload n =
  Array.init n (fun v ->
      if v mod 4 = 3 then []
      else
        [
          ((v + 1) mod n, [| v; v * 2 |]);
          ((v + (n / 2)) mod n, [| v |]);
          (v, [| 42 |]);
        ])

let test_split_exchange () =
  let n = 8 and shards = 2 and width = 4 in
  let owner = Shard.owners ~shards ~n in
  let split = Shard.split_exchange ~owner ~shards ~n ~width (workload n) in
  Alcotest.(check (option (pair int string))) "no range error" None
    split.Shard.range_error;
  (* gidx reproduces the src-major walk: concatenating the per-shard lists
     sorted together is exactly 0..messages-1. *)
  let all =
    Shard.merge_inbound (Array.to_list split.Shard.by_src_shard)
  in
  Alcotest.(check (list int)) "gidx is the global walk order"
    (List.init split.Shard.messages (fun i -> i))
    (List.map (fun (m : Shard.msg) -> m.Shard.gidx) all);
  (* every message sits in its source's shard, in gidx order *)
  Array.iteri
    (fun s msgs ->
      let last = ref (-1) in
      List.iter
        (fun (m : Shard.msg) ->
          Alcotest.(check int) "grouped by source shard" s owner.(m.Shard.src);
          Alcotest.(check bool) "ascending gidx" true (m.Shard.gidx > !last);
          last := m.Shard.gidx)
        msgs)
    split.Shard.by_src_shard;
  (* the expect matrix is exactly the nonzero cross-shard traffic *)
  let traffic = Array.make_matrix shards shards false in
  List.iter
    (fun (m : Shard.msg) ->
      let s = owner.(m.Shard.src) and d = owner.(m.Shard.dst) in
      if s <> d then traffic.(d).(s) <- true)
    all;
  for d = 0 to shards - 1 do
    for s = 0 to shards - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "expect.(%d).(%d)" d s)
        traffic.(d).(s) split.Shard.expect.(d).(s)
    done
  done;
  let crossings =
    List.length
      (List.filter
         (fun (m : Shard.msg) -> owner.(m.Shard.src) <> owner.(m.Shard.dst))
         all)
  in
  Alcotest.(check int) "crossings" crossings split.Shard.crossings

let test_split_errors_match_mailbox () =
  let n = 8 and shards = 3 and width = 2 in
  let owner = Shard.owners ~shards ~n in
  (* out-of-range destination: the recorded message must be byte-identical
     to what Mailbox.deliver raises. *)
  let bad = Array.make n [] in
  bad.(2) <- [ (1, [| 5 |]); (n + 3, [| 6 |]) ];
  let expected =
    match M.deliver ~n ~width bad with
    | _ -> Alcotest.fail "mailbox must reject the range"
    | exception Invalid_argument m -> m
  in
  (match
     (Shard.split_exchange ~owner ~shards ~n ~width bad).Shard.range_error
   with
  | Some (_, m) -> Alcotest.(check string) "range message identical" expected m
  | None -> Alcotest.fail "split must record the range error");
  (* outbox length mismatch raises the same Invalid_argument *)
  let short = Array.make (n - 1) [] in
  let expected =
    match M.deliver ~n ~width short with
    | _ -> Alcotest.fail "mailbox must reject the length"
    | exception Invalid_argument m -> m
  in
  Alcotest.(check string) "length message identical" expected
    (match Shard.split_exchange ~owner ~shards ~n ~width short with
    | _ -> "no exception"
    | exception Invalid_argument m -> m)

let test_first_overflow () =
  let mk gidx src dst pay = { Shard.gidx; src; dst; pay } in
  let stream =
    [ mk 0 1 3 [| 7 |]; mk 1 1 3 [| 8; 9 |]; mk 2 4 3 [| 1; 2; 3 |] ]
  in
  (match Shard.first_overflow ~n:8 ~width:2 stream with
  | Some o ->
    Alcotest.(check (pair (pair int int) (pair int int)))
      "pair (1,3) trips at gidx 1 with 3 words"
      ((1, 1), (3, 3))
      ((o.Shard.gidx, o.Shard.src), (o.Shard.dst, o.Shard.words))
  | None -> Alcotest.fail "overflow expected");
  Alcotest.(check bool) "within width is clean" true
    (Shard.first_overflow ~n:8 ~width:4 stream = None)

(* The full pure pipeline — split, per-shard partition + merge, local
   delivery, stitched slices — equals a single-process delivery, for every
   shard count. No sockets involved: this is the order argument itself. *)
let test_pipeline_matches_mailbox () =
  let inboxes_t = Alcotest.(array (list (pair int (array int)))) in
  let n = 12 and width = 4 in
  let outboxes = workload n in
  let reference, _ = M.deliver ~n ~width outboxes in
  List.iter
    (fun shards ->
      let owner = Shard.owners ~shards ~n in
      let split = Shard.split_exchange ~owner ~shards ~n ~width outboxes in
      let stitched = Array.make n [] in
      for d = 0 to shards - 1 do
        (* what worker d receives: its slice of every source shard's
           partition, merged back into gidx order *)
        let inbound =
          Shard.merge_inbound
            (List.map
               (fun msgs ->
                 (Shard.partition_by_dst ~owner ~shards msgs).(d))
               (Array.to_list split.Shard.by_src_shard))
        in
        let lo, hi = Shard.bounds ~shards ~n d in
        match
          Shard.deliver_local
            ~arena:(Runtime.Arena.create ~n ())
            ~n ~width ~lo ~hi inbound
        with
        | Shard.Overflow _ -> Alcotest.fail "no overflow in this workload"
        | Shard.Inboxes slices ->
          Array.iteri (fun i box -> stitched.(lo + i) <- box) slices
      done;
      Alcotest.check inboxes_t
        (Printf.sprintf "stitched slices == mailbox (shards=%d)" shards)
        reference stitched)
    [ 1; 2; 3; 4 ]

let suite =
  [
    Alcotest.test_case "frame round-trip (exact)" `Quick
      test_frame_round_trip_exact;
    Alcotest.test_case "frame corruption detected" `Quick
      test_frame_corruption_detected;
    Alcotest.test_case "frame truncation detected" `Quick
      test_frame_truncation_detected;
    Alcotest.test_case "reader bounds" `Quick test_reader_bounds;
    Alcotest.test_case "fnv pinned vectors" `Quick test_fnv_pinned;
    Alcotest.test_case "link over socketpair" `Quick test_link_socketpair;
    Alcotest.test_case "link over tcp" `Quick test_link_tcp;
    Alcotest.test_case "link address grammar" `Quick test_link_address_grammar;
    Alcotest.test_case "link recv deadline" `Quick test_link_recv_deadline;
    Alcotest.test_case "link recv_into reuses its buffer" `Quick
      test_link_recv_into_reuses;
    Alcotest.test_case "link recv_into keeps at most 64 KiB" `Quick
      test_link_recv_into_keeps_64k;
    Alcotest.test_case "link recv_into drains oversized" `Quick
      test_link_recv_into_oversized;
    Alcotest.test_case "shard owners/bounds" `Quick test_owners;
    Alcotest.test_case "bounds edge cases" `Quick test_bounds_edge_cases;
    Alcotest.test_case "partition drain" `Quick test_partition_drain;
    Alcotest.test_case "partition drain (empty ranges)" `Quick
      test_partition_drain_empty_ranges;
    Alcotest.test_case "split_exchange structure" `Quick test_split_exchange;
    Alcotest.test_case "split errors match mailbox" `Quick
      test_split_errors_match_mailbox;
    Alcotest.test_case "first overflow" `Quick test_first_overflow;
    Alcotest.test_case "pure pipeline matches mailbox" `Quick
      test_pipeline_matches_mailbox;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_frame_tests
