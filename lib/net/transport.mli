(** Simulated message transport with failure injection.

    Delivery of a message from node [a] to node [b] takes the one-way latency
    between their localities (plus optional jitter). A message is dropped —
    silently, as on a real network — when either endpoint is dead or the pair
    is partitioned at delivery time. RPCs are modeled as a request closure
    executed at the destination plus a reply ivar whose fill is delayed by
    the return path; a dropped message simply leaves the reply empty, so
    callers recover with {!Crdb_sim.Proc.await_timeout}. *)

type t

val create :
  ?jitter:float ->
  ?rng:Crdb_stdx.Rng.t ->
  ?obs:Crdb_obs.Obs.t ->
  sim:Crdb_sim.Sim.t ->
  topology:Topology.t ->
  latency:Latency.t ->
  unit ->
  t
(** [jitter] (default [0.05]) adds a uniform [0, jitter × delay) component to
    each one-way delay; pass [0.] for fully deterministic delays. [obs]
    (default {!Crdb_obs.Obs.null}) receives per-node [net.*] counters and,
    when tracing is enabled, rpc spans. *)

val sim : t -> Crdb_sim.Sim.t
val topology : t -> Topology.t

val delay : t -> Topology.node_id -> Topology.node_id -> int
(** Sampled one-way delay in microseconds for a message sent now. *)

val send :
  t ->
  src:Topology.node_id ->
  dst:Topology.node_id ->
  (Topology.node_id -> 'a -> unit) ->
  'a ->
  unit
(** [send t ~src ~dst handler payload] runs [handler dst payload] at [dst]
    after the one-way delay, unless dropped. *)

val rpc :
  ?op:Crdb_obs.Op.t ->
  t ->
  src:Topology.node_id ->
  dst:Topology.node_id ->
  ('a Crdb_sim.Ivar.t -> unit) ->
  'a Crdb_sim.Ivar.t
(** [rpc t ~src ~dst handler] runs [handler reply] at [dst]; when the handler
    fills [reply], the result travels back and fills the returned ivar.
    [op]'s span parents the recorded [net.rpc] span (finished when the reply
    lands; an RPC whose reply is dropped leaves no span). A cross-region RPC
    charges one WAN round trip to [op] (and the per-node [net.wan_rpcs]
    counter) at issue time. *)

(** {2 Failure injection} *)

val kill_node : t -> Topology.node_id -> unit
(** Stop delivering messages to or from the node. [kill_node] followed by
    {!revive_node} models a {e process restart}: the transport only governs
    reachability, so state that would live on disk in a real node (Raft log
    and term, applied MVCC data) survives, while in-memory state must be
    discarded by the layers that own it (see [Crdb_kv.Cluster.restart_node],
    which pairs the revival with a volatile-state reset). *)

val revive_node : t -> Topology.node_id -> unit
val is_alive : t -> Topology.node_id -> bool

val reachable : t -> Topology.node_id -> Topology.node_id -> bool
(** [reachable t src dst]: both nodes are alive and no partition cuts
    [src] off from [dst], so a message sent now would be delivered. *)

val kill_region : t -> string -> unit
val revive_region : t -> string -> unit
val kill_zone : t -> region:string -> zone:string -> unit
val revive_zone : t -> region:string -> zone:string -> unit

val partition_regions : t -> string -> string -> unit
(** Drop all traffic between the two regions (both directions). Idempotent:
    repeating an existing pair does not stack duplicate entries. *)

val heal_partition : t -> string -> string -> unit
(** Heal the partition between one region pair (order-insensitive); other
    partitions stay in force. *)

val heal_partitions : t -> unit
(** Heal every partition at once. *)

val dead_since : t -> Topology.node_id -> int option
(** Simulation time at which the node died, if currently dead. Used by the
    liveness oracle to model failure-detection delay. *)

val epoch : t -> Topology.node_id -> int
(** Liveness epoch of the node: incremented on every dead->alive transition.
    Models CRDB's epoch-based node liveness — trust placed in a node under an
    earlier incarnation (e.g. a quiesced follower's belief that its leader
    still holds the range) must be revalidated after a restart. *)
