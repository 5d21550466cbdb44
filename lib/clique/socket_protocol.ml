(* The shard transport's frame kinds and payload layouts, each encoder
   beside its decoder (DESIGN.md §11.1). Pure: the coordinator and the
   worker move the bytes. Every count a payload announces is read through
   [Frame.Reader.count] or [ints], so a corrupt or hostile one is
   [Malformed] before anything is allocated for it. *)

module Frame = Wire.Frame
module R = Frame.Reader
module W = Frame.Writer
module Shard = Runtime.Shard

let k_exchange = 1

let k_peer = 2

let k_inboxes = 3

let k_error = 4

(* Kinds 5 and 6 are retired and never reused: a worker of an older
   build at the same frame version reads them as a broadcast. *)

let k_peer_down = 7

let k_shutdown = 8

let k_hello = 9

let k_config = 10

let k_ready = 11

let k_assign = 12

let k_heartbeat = 13

let k_heartbeat_ack = 14

let malformed what = raise (Frame.Malformed { what })

let written ~hint write =
  let w = W.create ~hint () in
  write w;
  W.contents w

(* ------------------------------------------------------------ messages *)

let put_msg w (m : Shard.msg) =
  W.int w m.gidx;
  W.int w m.src;
  W.int w m.dst;
  W.ints w m.pay

let get_msg r : Shard.msg =
  let gidx = R.int r in
  let src = R.int r in
  let dst = R.int r in
  { gidx; src; dst; pay = R.ints r }

let put_batch w msgs =
  W.int w (List.length msgs);
  List.iter (put_msg w) msgs

(* [List.init] applies its function left to right. A message takes at
   least its four ints. *)
let get_batch r = List.init (R.count r ~bytes:32) (fun _ -> get_msg r)

let encode_batch msgs = written ~hint:256 (fun w -> put_batch w msgs)

let decode_batch b = get_batch (R.of_bytes b)

type exchange = {
  phase : string;
  width : int;
  expect : int;
  msgs : Shard.msg list;
}

let encode_exchange x =
  written ~hint:512 (fun w ->
      W.string w x.phase;
      W.int w x.width;
      W.int w x.expect;
      put_batch w x.msgs)

let decode_exchange b =
  let r = R.of_bytes b in
  let phase = R.string r in
  let width = R.int r in
  let expect = R.int r in
  { phase; width; expect; msgs = get_batch r }

(* ------------------------------------------------------------- replies *)

type mesh = {
  bytes_sent : int;
  bytes_recv : int;
  frames_sent : int;
  frames_recv : int;
}

type inboxes = { mesh : mesh; slices : (int * int array) list array }

(* Inbox slices, encoded in parallel over the worker's domain pool: per
   destination sizes are computed first, offsets prefix-summed, and each
   chunk writes only its own byte range — deterministic bytes for any
   CC_DOMAINS. Layout, as [Frame.Writer] would write it: [mesh:4 ints]
   [slice count][per dst: count, then (src, len, words) per entry in
   inbox-list order]. *)
let encode_inboxes ~pool { mesh; slices } =
  let m = Array.length slices in
  let entry_size l =
    List.fold_left (fun a (_, p) -> a + 16 + (8 * Array.length p)) 8 l
  in
  let offs = Array.make (m + 1) (8 * 5) in
  Array.iteri (fun i l -> offs.(i + 1) <- offs.(i) + entry_size l) slices;
  let buf = Bytes.create offs.(m) in
  List.iteri
    (fun i v -> Bytes.set_int64_le buf (8 * i) (Int64.of_int v))
    [ mesh.bytes_sent; mesh.bytes_recv; mesh.frames_sent; mesh.frames_recv; m ];
  Runtime.Pool.run pool ~n:m (fun clo chi ->
      for d = clo to chi - 1 do
        let p = ref offs.(d) in
        let put v =
          Bytes.set_int64_le buf !p (Int64.of_int v);
          p := !p + 8
        in
        put (List.length slices.(d));
        List.iter
          (fun (src, pay) ->
            put src;
            put (Array.length pay);
            Array.iter put pay)
          slices.(d)
      done);
  buf

(* A slice takes at least its count, an entry its source and length. *)
let decode_inboxes b =
  let r = R.of_bytes b in
  let bytes_sent = R.int r in
  let bytes_recv = R.int r in
  let frames_sent = R.int r in
  let frames_recv = R.int r in
  let entry _ =
    let src = R.int r in
    (src, R.ints r)
  in
  let slices =
    Array.init (R.count r ~bytes:8) (fun _ ->
        List.init (R.count r ~bytes:16) entry)
  in
  { mesh = { bytes_sent; bytes_recv; frames_sent; frames_recv }; slices }

let encode_overflow (o : Shard.overflow) =
  written ~hint:64 (fun w ->
      List.iter (W.int w) [ o.gidx; o.src; o.dst; o.words; o.width ])

let decode_overflow b : Shard.overflow =
  let r = R.of_bytes b in
  let gidx = R.int r in
  let src = R.int r in
  let dst = R.int r in
  let words = R.int r in
  { gidx; src; dst; words; width = R.int r }

let encode_peer_down suspects =
  written ~hint:32 (fun w -> W.ints w (Array.of_list suspects))

let decode_peer_down b = Array.to_list (R.ints (R.of_bytes b))

(* ----------------------------------------------------------- rendezvous *)

let encode_hello mesh_addr = written ~hint:64 (fun w -> W.string w mesh_addr)

(* Parsed here, forwarded as sent: a Config carries the hello's bytes. *)
let decode_hello b =
  let mesh_addr = R.string (R.of_bytes b) in
  match Wire.Link.address mesh_addr with
  | _ -> mesh_addr
  | exception Invalid_argument _ -> malformed "hello: mesh address"

type member = { alive : bool; lo : int; hi : int; mesh_addr : string }

type config = { epoch : int; timeout : float; members : member array }

let encode_config c =
  written ~hint:256 (fun w ->
      W.int w c.epoch;
      W.string w (Printf.sprintf "%h" c.timeout);
      Array.iter
        (fun m ->
          W.int w (if m.alive then 1 else 0);
          W.int w m.lo;
          W.int w m.hi;
          W.string w m.mesh_addr)
        c.members)

let decode_config ~shards b =
  let r = R.of_bytes b in
  let epoch = R.int r in
  let timeout =
    match float_of_string_opt (R.string r) with
    | Some x when x > 0.0 && x <= Runtime.Config.max_timeout -> x
    | Some _ | None -> malformed "config: timeout"
  in
  let member _ =
    let alive = R.int r = 1 in
    let lo = R.int r in
    let hi = R.int r in
    { alive; lo; hi; mesh_addr = R.string r }
  in
  { epoch; timeout; members = Array.init shards member }

type assign = { slot : int; shards : int; n : int; epoch : int }

let encode_assign a =
  written ~hint:64 (fun w ->
      List.iter (W.int w) [ a.slot; a.shards; a.n; a.epoch ])

let decode_assign b =
  let r = R.of_bytes b in
  let slot = R.int r in
  let shards = R.int r in
  let n = R.int r in
  { slot; shards; n; epoch = R.int r }

type spec = { assign : assign; domains : int; rendezvous : string }

let spec_to_string { assign = a; domains; rendezvous } =
  Printf.sprintf "%d/%d/%d/%d/%d/%s" a.slot a.shards a.n a.epoch domains
    rendezvous

let spec_of_string spec =
  match String.split_on_char '/' spec with
  | s :: k :: n :: e :: d :: (_ :: _ as rest) -> (
    match List.map int_of_string_opt [ s; k; n; e; d ] with
    | [ Some slot; Some shards; Some n; Some epoch; Some domains ] ->
      { assign = { slot; shards; n; epoch }; domains;
        rendezvous = String.concat "/" rest }
    | _ -> malformed "CC_SHARD_WORKER: malformed spec")
  | _ -> malformed "CC_SHARD_WORKER: malformed spec"
