(** Node liveness oracle.

    Models CRDB's node-liveness range without its message traffic: a dead
    node is still {e believed} live for 4.5 simulated seconds after its
    death (CRDB's default liveness TTL: the record takes that long to
    lapse). Followers of quiesced ranges consult this before campaigning,
    and lease placement avoids dead nodes. *)

type t

val create : Crdb_net.Transport.t -> t

val believed_live : t -> Crdb_net.Topology.node_id -> bool
(** True while the node is up, and for 4.5 s after it goes down. *)

val epoch : t -> Crdb_net.Topology.node_id -> int
(** The node's liveness epoch (incarnation counter): bumped by each restart.
    A quiesced follower must stop trusting a leader whose epoch has moved on
    since the range quiesced — the restarted process no longer leads. *)
