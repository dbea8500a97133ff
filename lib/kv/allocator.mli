(** Replica placement.

    Turns a {!Zoneconfig.t} into a concrete assignment of replicas to nodes,
    following CRDB's allocator heuristics (§3.2): satisfy the per-region
    constraints, spread replicas across distinct failure domains (zones, then
    regions — the diversity score), and break remaining ties by load (fewest
    replicas already on the node). Unconstrained voters go to the regions
    closest to the leaseholder so that quorums are cheap, matching the
    paper's [L_raft] = "RTT to the nearest quorum". *)

type placement = (Crdb_net.Topology.node_id * Crdb_raft.Raft.peer_kind) list

val place :
  topology:Crdb_net.Topology.t ->
  latency:Crdb_net.Latency.t ->
  load:(Crdb_net.Topology.node_id -> int) ->
  zone:Zoneconfig.t ->
  placement
(** @raise Failure if the topology cannot satisfy the configuration (for
    example, a voter constraint on a region with no nodes). *)

type move = {
  victim : Crdb_net.Topology.node_id;
  replacement : Crdb_net.Topology.node_id;
  kind : Crdb_raft.Raft.peer_kind;
}

val rebalance_move :
  topology:Crdb_net.Topology.t ->
  live:(Crdb_net.Topology.node_id -> bool) ->
  load:(Crdb_net.Topology.node_id -> int) ->
  zone:Zoneconfig.t ->
  placement ->
  move option
(** The best single-replica substitution that strictly improves the
    placement's score (constraint violations, then diversity penalty, then
    total load; lower is better), or [None] when the placement is locally
    optimal.
    The replacement keeps the victim's peer kind; only live nodes not
    already holding a replica are considered. One replica moves at a time
    (add-then-remove), matching CRDB's rebalancer. *)

val preferred_leaseholder :
  topology:Crdb_net.Topology.t ->
  live:(Crdb_net.Topology.node_id -> bool) ->
  zone:Zoneconfig.t ->
  placement ->
  Crdb_net.Topology.node_id option
(** The live voter to pin the lease to: in the first preferred region that
    has one, otherwise any live voter. *)

val lease_preference_rank :
  topology:Crdb_net.Topology.t ->
  zone:Zoneconfig.t ->
  Crdb_net.Topology.node_id ->
  int
(** Index of the node's region in the zone's lease-preference list
    ([max_int] when it appears in none); lower is better. *)

val preferred_leaseholder_by_load :
  topology:Crdb_net.Topology.t ->
  live:(Crdb_net.Topology.node_id -> bool) ->
  load:(Crdb_net.Topology.node_id -> int) ->
  zone:Zoneconfig.t ->
  placement ->
  Crdb_net.Topology.node_id option
(** Load-aware variant of {!preferred_leaseholder}, the autopilot rebalance
    queue's target chooser: among live voters, minimize
    [(lease_preference_rank, load, node id)] lexicographically — lease
    preferences still strictly dominate, load breaks ties within the same
    preference rank, and the node id keeps the choice deterministic. With a
    constant [load] this degrades to a deterministic
    {!preferred_leaseholder}. *)

val satisfies :
  topology:Crdb_net.Topology.t -> zone:Zoneconfig.t -> placement -> bool
(** Check a placement against the configuration (used by tests and by
    [alter] to decide whether to move replicas). *)
