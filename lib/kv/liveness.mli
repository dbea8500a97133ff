(** Node liveness oracle.

    Models CRDB's node-liveness range without its message traffic: a dead
    node is still {e believed} live until [expiry] microseconds after its
    death (the liveness record takes that long to lapse). Followers of
    quiesced ranges consult this before campaigning, and lease placement
    avoids dead nodes. *)

type t

val create : ?expiry:int -> Crdb_net.Transport.t -> t
(** Default expiry: 4.5 simulated seconds, CRDB's default liveness TTL. *)

val believed_live : t -> Crdb_net.Topology.node_id -> bool
(** True while the node is up, and for [expiry] after it goes down. *)

val epoch : t -> Crdb_net.Topology.node_id -> int
(** The node's liveness epoch (incarnation counter): bumped by each restart.
    A quiesced follower must stop trusting a leader whose epoch has moved on
    since the range quiesced — the restarted process no longer leads. *)

val expiry : t -> int
