(* The shard transport's payload codecs ([Clique.Socket_protocol]), which
   are pure: each payload's layout pinned to the bytes [Frame.Writer]
   writes for it, every decoder inverting its encoder on generated values,
   and every decoder total on damaged bytes (a value or [Malformed],
   nothing else), at a fixed seed. The multi-process legs that carry
   these payloads live in test_socket.ml. *)

module P = Clique.Socket_protocol
module Frame = Wire.Frame
module W = Frame.Writer
module Shard = Runtime.Shard

let written write =
  let w = W.create () in
  write w;
  W.contents w

let expect_malformed what f =
  Alcotest.(check bool) what true
    (match f () with _ -> false | exception Frame.Malformed _ -> true)

let bytes_t =
  Alcotest.testable
    (fun ppf b -> Format.fprintf ppf "%S" (Bytes.to_string b))
    Bytes.equal

(* --------------------------------------------------------- the layouts *)

let msgs : Shard.msg list =
  [ { gidx = 0; src = 1; dst = 5; pay = [| 7 |] };
    { gidx = 3; src = 2; dst = 4; pay = [||] } ]

let put_msgs w =
  W.int w 2;
  List.iter
    (fun (m : Shard.msg) ->
      List.iter (W.int w) [ m.gidx; m.src; m.dst ];
      W.ints w m.pay)
    msgs

(* Each payload's layout, written here with [Frame.Writer] field by
   field: 8-byte ints, length-prefixed strings and int arrays. A worker
   and a coordinator at one frame version must agree on these bytes. *)
let test_layouts () =
  Alcotest.check bytes_t "exchange"
    (written (fun w ->
         W.string w "phase";
         W.int w 2;
         W.int w 0b101;
         put_msgs w))
    (P.encode_exchange { phase = "phase"; width = 2; expect = 0b101; msgs });
  Alcotest.check bytes_t "peer batch" (written put_msgs) (P.encode_batch msgs);
  Alcotest.check bytes_t "inboxes"
    (written (fun w ->
         List.iter (W.int w) [ 10; 20; 1; 2; 2 ];
         W.int w 2;
         W.int w 4;
         W.ints w [| 1; 2 |];
         W.int w 6;
         W.ints w [||];
         W.int w 0))
    (P.encode_inboxes ~pool:(Runtime.Pool.get 1)
       { mesh = { bytes_sent = 10; bytes_recv = 20; frames_sent = 1;
                  frames_recv = 2 };
         slices = [| [ (4, [| 1; 2 |]); (6, [||]) ]; [] |] });
  Alcotest.check bytes_t "error"
    (written (fun w -> List.iter (W.int w) [ 9; 1; 2; 3; 2 ]))
    (P.encode_overflow { gidx = 9; src = 1; dst = 2; words = 3; width = 2 });
  Alcotest.check bytes_t "peer down"
    (written (fun w -> W.ints w [| 3; 1 |]))
    (P.encode_peer_down [ 3; 1 ]);
  Alcotest.check bytes_t "hello"
    (written (fun w -> W.string w "unix:/tmp/m0"))
    (P.encode_hello "unix:/tmp/m0");
  Alcotest.check bytes_t "config"
    (written (fun w ->
         W.int w 4;
         W.string w "0x1.ep+4";
         List.iter (W.int w) [ 1; 0; 3 ];
         W.string w "unix:/a";
         List.iter (W.int w) [ 0; 3; 3 ];
         W.string w ""))
    (P.encode_config
       { epoch = 4; timeout = 30.0;
         members =
           [| { alive = true; lo = 0; hi = 3; mesh_addr = "unix:/a" };
              { alive = false; lo = 3; hi = 3; mesh_addr = "" } |] });
  Alcotest.check bytes_t "assign"
    (written (fun w -> List.iter (W.int w) [ 1; 2; 8; 3 ]))
    (P.encode_assign { slot = 1; shards = 2; n = 8; epoch = 3 });
  Alcotest.(check string) "worker spec" "1/2/8/3/4/unix:/tmp/r"
    (P.spec_to_string
       { assign = { slot = 1; shards = 2; n = 8; epoch = 3 }; domains = 4;
         rendezvous = "unix:/tmp/r" })

(* The inbox slices are written by chunks of destinations in parallel:
   the bytes do not depend on how many domains write them. *)
let test_inboxes_any_pool () =
  let slices =
    Array.init 9 (fun d -> List.init (d mod 3) (fun i -> (i, Array.make d i)))
  in
  let reply =
    { P.mesh = { bytes_sent = 1; bytes_recv = 2; frames_sent = 3;
                 frames_recv = 4 };
      slices }
  in
  Alcotest.check bytes_t "1 and 2 domains"
    (P.encode_inboxes ~pool:(Runtime.Pool.get 1) reply)
    (P.encode_inboxes ~pool:(Runtime.Pool.get 2) reply)

(* A Config's timeout bounds every wait of the worker that adopts it, so
   one outside (0, max_timeout] is Malformed, not a worker that exits on
   its first wait. A valid one decodes exactly. *)
let test_config_timeouts () =
  let config timeout =
    written (fun w ->
        W.int w 2;
        W.string w timeout;
        List.iter (W.int w) [ 1; 0; 4 ];
        W.string w "unix:/m")
  in
  List.iter
    (fun s ->
      expect_malformed ("timeout " ^ s) (fun () ->
          P.decode_config ~shards:1 (config s)))
    [ "abc"; "nan"; "inf"; "0"; "-1" ];
  let c = P.decode_config ~shards:1 (config (Printf.sprintf "%h" 0.25)) in
  Alcotest.(check (float 0.0)) "a valid timeout" 0.25 c.timeout;
  Alcotest.(check string) "its member" "unix:/m" c.members.(0).mesh_addr

(* A hello's mesh address is parsed, and forwarded as sent. *)
let test_hello_address () =
  List.iter
    (fun a ->
      expect_malformed ("hello " ^ a) (fun () ->
          P.decode_hello (P.encode_hello a)))
    [ "bogus"; "unix:"; "tcp:127.0.0.1"; ":80" ];
  Alcotest.(check string) "bare HOST:PORT kept as sent" "127.0.0.1:80"
    (P.decode_hello (P.encode_hello "127.0.0.1:80"))

(* ------------------------------------------------- generated payloads *)

let msg_gen =
  QCheck.Gen.(
    map4
      (fun gidx src dst pay : Shard.msg -> { gidx; src; dst; pay })
      small_signed_int small_nat small_nat
      (array_size (int_range 0 4) int))

let batch_gen = QCheck.Gen.(list_size (int_range 0 5) msg_gen)

let exchange_gen =
  QCheck.Gen.(
    map4
      (fun phase width expect msgs -> { P.phase; width; expect; msgs })
      (string_size (int_range 0 12))
      small_nat int batch_gen)

let inboxes_gen =
  QCheck.Gen.(
    map2
      (fun (bytes_sent, bytes_recv, frames_sent, frames_recv) slices ->
        { P.mesh = { bytes_sent; bytes_recv; frames_sent; frames_recv };
          slices })
      (quad int int int int)
      (array_size (int_range 0 4)
         (list_size (int_range 0 3)
            (pair small_signed_int (array_size (int_range 0 4) int)))))

let overflow_gen =
  QCheck.Gen.(
    map5
      (fun gidx src dst words width : Shard.overflow ->
        { gidx; src; dst; words; width })
      int int int int int)

(* Addresses in the grammar, written as [Wire.Link.to_string] writes
   them: a non-empty path, or a non-empty host and a port. *)
let address_gen =
  QCheck.Gen.(
    let word = string_size ~gen:printable (int_range 1 16) in
    oneof
      [
        map (fun p -> Wire.Link.to_string (Wire.Link.Unix_socket p)) word;
        map2
          (fun h p -> Wire.Link.to_string (Wire.Link.Tcp (h, p)))
          word (int_range 0 65535);
      ])

let config_gen =
  QCheck.Gen.(
    map3
      (fun epoch timeout members -> { P.epoch; timeout; members })
      int
      (float_range 1e-9 Runtime.Config.max_timeout)
      (array_size (int_range 0 4)
         (map4
            (fun alive lo hi mesh_addr -> { P.alive; lo; hi; mesh_addr })
            bool int int (string_size (int_range 0 12)))))

let assign_gen =
  QCheck.Gen.(
    map4 (fun slot shards n epoch -> { P.slot; shards; n; epoch }) int int
      int int)

let spec_gen =
  QCheck.Gen.(
    map3
      (fun assign domains rendezvous -> { P.assign; domains; rendezvous })
      assign_gen int
      (string_size (int_range 0 20)))

let round_trip name gen encode decode =
  QCheck.Test.make ~name:(name ^ ": decode inverts encode") ~count:200
    (QCheck.make gen) (fun v -> decode (encode v) = v)

let round_trips =
  [
    round_trip "exchange" exchange_gen P.encode_exchange P.decode_exchange;
    round_trip "peer batch" batch_gen P.encode_batch P.decode_batch;
    round_trip "inboxes" inboxes_gen
      (P.encode_inboxes ~pool:(Runtime.Pool.get 1))
      P.decode_inboxes;
    round_trip "error" overflow_gen P.encode_overflow P.decode_overflow;
    round_trip "peer down"
      QCheck.Gen.(list_size (int_range 0 6) int)
      P.encode_peer_down P.decode_peer_down;
    round_trip "hello" address_gen P.encode_hello P.decode_hello;
    (* The receiver knows the slot count; the payload does not carry it. *)
    QCheck.Test.make ~name:"config: decode inverts encode" ~count:200
      (QCheck.make config_gen) (fun c ->
        P.decode_config ~shards:(Array.length c.members) (P.encode_config c)
        = c);
    round_trip "assign" assign_gen P.encode_assign P.decode_assign;
    round_trip "worker spec" spec_gen P.spec_to_string P.spec_of_string;
  ]

(* Every payload, encoded. *)
let encoded_gen =
  QCheck.Gen.(
    oneof
      [
        map P.encode_exchange exchange_gen;
        map P.encode_batch batch_gen;
        map (P.encode_inboxes ~pool:(Runtime.Pool.get 1)) inboxes_gen;
        map P.encode_overflow overflow_gen;
        map P.encode_peer_down (list_size (int_range 0 6) int);
        map P.encode_hello address_gen;
        map P.encode_config config_gen;
        map P.encode_assign assign_gen;
        map (fun s -> Bytes.of_string (P.spec_to_string s)) spec_gen;
      ])

(* Random bytes, or a valid encoding cut short or with one byte
   replaced. *)
let damaged_gen =
  QCheck.Gen.(
    oneof
      [
        bytes_size (int_range 0 80);
        ( encoded_gen >>= fun b ->
          int_range 0 (max 0 (Bytes.length b - 1)) >|= Bytes.sub b 0 );
        ( encoded_gen >>= fun b ->
          if Bytes.length b = 0 then return b
          else
            pair (int_range 0 (Bytes.length b - 1)) (int_range 0 255)
            >|= fun (i, c) ->
            let b = Bytes.copy b in
            Bytes.set b i (Char.chr c);
            b );
      ])

let decoders =
  [
    ("exchange", fun b -> ignore (P.decode_exchange b));
    ("peer batch", fun b -> ignore (P.decode_batch b));
    ("inboxes", fun b -> ignore (P.decode_inboxes b));
    ("error", fun b -> ignore (P.decode_overflow b));
    ("peer down", fun b -> ignore (P.decode_peer_down b));
    ("hello", fun b -> ignore (P.decode_hello b));
    ( "config",
      fun b ->
        List.iter (fun k -> ignore (P.decode_config ~shards:k b)) [ 0; 1; 3 ]
    );
    ("assign", fun b -> ignore (P.decode_assign b));
    ("worker spec", fun b -> ignore (P.spec_of_string (Bytes.to_string b)));
  ]

(* The decoders' contract on untrusted bytes: a value or [Malformed]. An
   exception of any other kind fails the property with its name. *)
let totality =
  QCheck.Test.make ~name:"every decoder total on damaged bytes" ~count:1000
    (QCheck.make ~print:(fun b -> Printf.sprintf "%S" (Bytes.to_string b))
       damaged_gen)
    (fun b ->
      List.for_all
        (fun (_, decode) ->
          match decode b with () -> true | exception Frame.Malformed _ -> true)
        decoders)

let suite =
  [
    Alcotest.test_case "payload layouts" `Quick test_layouts;
    Alcotest.test_case "inboxes: same bytes for any pool" `Quick
      test_inboxes_any_pool;
    Alcotest.test_case "config: bad timeouts are malformed" `Quick
      test_config_timeouts;
    Alcotest.test_case "hello: the mesh address is parsed" `Quick
      test_hello_address;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false
         ~rand:(Random.State.make [| 30 |]))
      (round_trips @ [ totality ])
