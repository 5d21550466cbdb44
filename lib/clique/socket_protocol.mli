(** The shard transport's protocol (DESIGN.md §11.1): every frame kind
    and every payload layout, each encoder beside its decoder. The
    coordinator ({!Socket}) and the worker ({!Socket_worker}) both write
    and read payloads only through here.

    Pure: no socket and no process. Every decoder returns a value or
    raises [Wire.Frame.Malformed], whatever bytes it is given, and reads
    each count a payload announces through [Frame.Reader.count] or
    [ints], so a corrupt or hostile count is [Malformed] before anything
    is allocated for it.

    {v
     coordinator                     worker s
     -----------                     --------
     bootstrap: accept Hello (or assign a remote slot), then
     Config(epoch, timeout,
            live table)          ->  build the worker mesh
                                 <-  Ready(epoch)
     Exchange(phase,width,expect,
              own-source batch)  ->
                                     batches by dst shard,
                                     one Peer frame per ordered
                                     (s,u) pair with traffic   -> peers
                                     merge + sort by gidx,
                                     arena delivery
                                  <- Inboxes slice | WidthErr | PeerDown
    v} *)

(** {2 Frame kinds}

    Kinds 5 and 6 are retired and never reused: a worker of an older
    build at the same frame version reads them as a broadcast. The
    Ready, Shutdown, Heartbeat and HeartbeatAck payloads are empty. *)

val k_exchange : int
(** 1, coordinator to worker: an {!exchange}. *)

val k_peer : int
(** 2, worker to worker: a batch ({!encode_batch}). *)

val k_inboxes : int
(** 3, worker to coordinator: {!inboxes}. *)

val k_error : int
(** 4, worker to coordinator: a width overflow ({!encode_overflow}). *)

val k_peer_down : int
(** 7, worker to coordinator: the mesh peers it found dead
    ({!encode_peer_down}). *)

val k_shutdown : int
(** 8, coordinator to worker. *)

val k_hello : int
(** 9. To the coordinator's rendezvous it carries the worker's mesh
    address ({!encode_hello}); to a mesh peer it is empty. *)

val k_config : int
(** 10, coordinator to worker: a {!config}. *)

val k_ready : int
(** 11, worker to coordinator: the answer to a Config. *)

val k_assign : int
(** 12, coordinator to a remote worker: its {!assign}. *)

val k_heartbeat : int
(** 13, coordinator to worker. *)

val k_heartbeat_ack : int
(** 14, worker to coordinator. *)

(** {2 Payloads} *)

type exchange = {
  phase : string;  (** the coordinator's [Mailbox] context *)
  width : int;
  expect : int;  (** bit [u] set: shard [u] sends this shard a Peer frame *)
  msgs : Runtime.Shard.msg list;  (** messages from this shard's sources *)
}

val encode_exchange : exchange -> Bytes.t

val decode_exchange : Bytes.t -> exchange

val encode_batch : Runtime.Shard.msg list -> Bytes.t
(** A Peer frame's payload: the count, then each message's [gidx], [src],
    [dst] and payload words. *)

val decode_batch : Bytes.t -> Runtime.Shard.msg list

type mesh = {
  bytes_sent : int;
  bytes_recv : int;
  frames_sent : int;
  frames_recv : int;
}
(** A worker's mesh traffic in one round, for the [wire.*] stats. *)

type inboxes = { mesh : mesh; slices : (int * int array) list array }
(** A worker's reply: its mesh traffic and, per node of its range, the
    inbox in delivery order. *)

val encode_inboxes : pool:Runtime.Pool.t -> inboxes -> Bytes.t
(** Encoded over [pool]: each chunk of destinations writes only its own
    byte range, so the bytes are the same for any pool size. *)

val decode_inboxes : Bytes.t -> inboxes

val encode_overflow : Runtime.Shard.overflow -> Bytes.t

val decode_overflow : Bytes.t -> Runtime.Shard.overflow

val encode_peer_down : int list -> Bytes.t

val decode_peer_down : Bytes.t -> int list
(** The slots as sent, which need not exist. *)

val encode_hello : string -> Bytes.t
(** A rendezvous hello: the worker's mesh address, in
    [Wire.Link.to_string]'s form. *)

val decode_hello : Bytes.t -> string
(** The mesh address as sent; [Malformed] unless [Wire.Link.address]
    parses it, so a bad address fails the rendezvous on the slot that
    sent it instead of failing the peer that dials it. *)

type member = { alive : bool; lo : int; hi : int; mesh_addr : string }
(** One slot of a Config: liveness, node range [\[lo, hi)] and the mesh
    address from its hello. *)

type config = { epoch : int; timeout : float; members : member array }

val encode_config : config -> Bytes.t
(** The timeout travels as a [%h] string, so it arrives exact. *)

val decode_config : shards:int -> Bytes.t -> config
(** Reads [shards] (at least 0) members. A timeout outside
    [(0, Runtime.Config.max_timeout]] is [Malformed]: text that is no
    float, NaN, infinity, zero or a negative value, none of which a
    worker can bound its waits by. *)

type assign = { slot : int; shards : int; n : int; epoch : int }
(** Where a worker sits: slot [slot] of [shards], [n] clique nodes, at
    session epoch [epoch]. *)

val encode_assign : assign -> Bytes.t

val decode_assign : Bytes.t -> assign

(** {2 The worker spec}

    A spawned worker finds [CC_SHARD_WORKER=<slot>/<shards>/<n>/<epoch>/
    <domains>/<rendezvous>] in its environment. [domains] is the
    coordinator's effective domain count: a [Runtime.Config.with_]
    record does not survive the exec. *)

type spec = { assign : assign; domains : int; rendezvous : string }

val spec_to_string : spec -> string

val spec_of_string : string -> spec
(** [Malformed] unless the spec is five integers ([int_of_string]'s
    forms) and a rendezvous address, separated by slashes. *)
