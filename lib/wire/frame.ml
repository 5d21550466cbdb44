(* Length-prefixed binary framing for per-round message batches
   (DESIGN.md §11, §14). One frame = a 36-byte versioned header plus an
   opaque payload; the header carries an FNV-1a checksum of the payload so
   a corrupt or resynchronized stream fails loudly instead of delivering
   garbage to a deterministic algorithm, and an epoch counter so a late
   frame from a dead incarnation of a worker is rejected instead of being
   mistaken for current-round traffic. *)

exception Malformed of { what : string }

let () =
  Printexc.register_printer (function
    | Malformed { what } -> Some (Printf.sprintf "Wire.Frame.Malformed(%s)" what)
    | _ -> None)

let malformed fmt =
  Printf.ksprintf (fun what -> raise (Malformed { what })) fmt

let version = 3

let header_bytes = 36

(* A frame payload is at most 1 GiB: large enough for any round of the
   reproduction, small enough that a corrupt length field cannot make the
   receiver allocate the address space. *)
let max_payload = 1 lsl 30

type header = {
  kind : int;
  src : int;
  dst : int;
  seq : int;
  epoch : int;
  len : int;
  sum : int64;
}

type t = {
  kind : int;
  src : int;
  dst : int;
  seq : int;
  epoch : int;
  payload : Bytes.t;
}

(* Header layout (all little-endian):
     0..1   magic "CW"
     2      format version (3)
     3      frame kind (protocol-defined, opaque here)
     4..7   source shard id   (int32; -1 = coordinator)
     8..11  destination shard id
     12..19 sequence number (the coordinator's per-session op counter)
     20..23 session epoch (bumped by every supervision event)
     24..27 payload length in bytes
     28..35 FNV-1a 64 checksum of the payload *)

let put32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let get32 b off = Int32.to_int (Bytes.get_int32_le b off)

let encode { kind; src; dst; seq; epoch; payload } =
  let len = Bytes.length payload in
  if len > max_payload then invalid_arg "Wire.Frame.encode: payload too large";
  if kind < 0 || kind > 0xff then invalid_arg "Wire.Frame.encode: kind out of range";
  let b = Bytes.create (header_bytes + len) in
  Bytes.set b 0 'C';
  Bytes.set b 1 'W';
  Bytes.set b 2 (Char.chr version);
  Bytes.set b 3 (Char.chr kind);
  put32 b 4 src;
  put32 b 8 dst;
  Bytes.set_int64_le b 12 (Int64.of_int seq);
  put32 b 20 epoch;
  put32 b 24 len;
  Bytes.set_int64_le b 28 (Fnv.hash_bytes payload ~pos:0 ~len);
  Bytes.blit payload 0 b header_bytes len;
  b

let decode_header b =
  if Bytes.length b <> header_bytes then
    malformed "header is %d bytes, want %d" (Bytes.length b) header_bytes;
  if Bytes.get b 0 <> 'C' || Bytes.get b 1 <> 'W' then
    malformed "bad magic %C%C" (Bytes.get b 0) (Bytes.get b 1);
  let v = Char.code (Bytes.get b 2) in
  if v <> version then malformed "unsupported format version %d (want %d)" v version;
  let len = get32 b 24 in
  if len < 0 || len > max_payload then malformed "payload length %d out of range" len;
  {
    kind = Char.code (Bytes.get b 3);
    src = get32 b 4;
    dst = get32 b 8;
    seq = Int64.to_int (Bytes.get_int64_le b 12);
    epoch = get32 b 20;
    len;
    sum = Bytes.get_int64_le b 28;
  }

let check_sum hdr b len =
  if Fnv.hash_bytes b ~pos:0 ~len <> hdr.sum then
    malformed "checksum mismatch on kind=%d frame (src=%d, dst=%d, seq=%d)"
      hdr.kind hdr.src hdr.dst hdr.seq

let check hdr b =
  if Bytes.length b < hdr.len then
    malformed "a %d-byte buffer cannot hold a %d-byte payload" (Bytes.length b)
      hdr.len;
  check_sum hdr b hdr.len

let verify hdr payload =
  check_sum hdr payload (Bytes.length payload);
  { kind = hdr.kind; src = hdr.src; dst = hdr.dst; seq = hdr.seq;
    epoch = hdr.epoch; payload }

let decode b =
  if Bytes.length b < header_bytes then
    malformed "frame is %d bytes, shorter than the header" (Bytes.length b);
  let hdr = decode_header (Bytes.sub b 0 header_bytes) in
  if Bytes.length b <> header_bytes + hdr.len then
    malformed "frame is %d bytes, header announces %d of payload"
      (Bytes.length b) hdr.len;
  verify hdr (Bytes.sub b header_bytes hdr.len)

(* ------------------------------------------ payload writer and reader *)

module Writer = struct
  type t = Buffer.t

  let create ?(hint = 256) () = Buffer.create hint

  let int w v = Buffer.add_int64_le w (Int64.of_int v)

  let string w s =
    int w (String.length s);
    Buffer.add_string w s

  let contents = Buffer.to_bytes
end

module Reader = struct
  type t = { buf : Bytes.t; mutable pos : int }

  let of_bytes buf = { buf; pos = 0 }

  let int r =
    if r.pos + 8 > Bytes.length r.buf then
      malformed "payload truncated at byte %d reading an int" r.pos;
    let v = Int64.to_int (Bytes.get_int64_le r.buf r.pos) in
    r.pos <- r.pos + 8;
    v

  let string r =
    let len = int r in
    if len < 0 || r.pos + len > Bytes.length r.buf then
      malformed "payload truncated at byte %d reading a %d-byte string" r.pos len;
    let s = Bytes.sub_string r.buf r.pos len in
    r.pos <- r.pos + len;
    s

  let at_end r = r.pos = Bytes.length r.buf
end
