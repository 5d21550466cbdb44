(** A shard worker process of {!Socket} (DESIGN.md §11.2, §14): its boot
    and rendezvous, its mesh, and the loop serving the coordinator's
    frames. Payload layouts live in {!Socket_protocol}, raw socket I/O in
    [Wire.Link].

    Per Exchange the worker sends at most one Peer frame to each mesh
    peer it has traffic for and reads one from each peer the coordinator
    names, through one [Wire.Link.multiplex] bounded by the session
    timeout. It then delivers its node range on a private
    [Runtime.Arena] and replies once: Inboxes, a width Error, or a
    PeerDown naming the peers that hung up or stayed silent. A Config
    closes every mesh link and dials or accepts a fresh one per live
    peer. *)

(** How a worker joins: spawned by the coordinator, with its
    [CC_SHARD_WORKER] spec ({!Socket_protocol.spec_of_string}); or
    remote, with the coordinator's address, to be assigned a slot. *)
type boot = Spawned of string | Remote of string

val main : boot -> 'a
(** Boot, serve until Shutdown or until the coordinator hangs up, and
    leave with [Unix._exit] (1 on an exception, which is printed), so
    the parent's [at_exit] hooks stay the parent's. Never returns. *)

val spawned_mesh : string -> int -> Wire.Link.address
(** [spawned_mesh path s]: in a session whose rendezvous is the
    Unix-domain socket [path], the mesh socket that spawned slot [s]
    binds. The coordinator removes it when it reaps the slot, since a
    killed worker cannot. *)
