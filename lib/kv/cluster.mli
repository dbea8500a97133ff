(** The distributed KV layer: Ranges, replicas, leases and closed timestamps.

    A cluster owns the simulator, one HLC clock per node, the transport, and
    a set of Ranges. Each Range covers a contiguous key span, is replicated
    with Raft according to its {!Zoneconfig.t}, and closes timestamps under
    one of two policies:

    - [Lag]: the leaseholder closes [now - 3 s], enabling follower reads
      of sufficiently stale data (§5);
    - [Lead]: the leaseholder closes {e future} time
      [L_raft + L_replicate + max_offset + publication interval] ahead, the
      GLOBAL-table policy (§6.2.1). Writes are pushed above the closed
      target, i.e. into the future.

    Closed timestamps travel both inside Raft entries and over a node-level
    side channel (one batched message per node pair per interval, CRDB's v2
    closed-timestamp transport); followers only adopt a side-channel update
    once they have applied the prefix of the log it covers.

    All read/write operations must run inside a {!Crdb_sim.Proc} coroutine;
    they perform real RPCs over the transport and take simulated time. *)

module Ts = Crdb_hlc.Timestamp

type policy = Lag | Lead

(** Deliberately broken modes for checker validation; each must be caught.
    One value, set once at {!create}, read where it acts. *)
type broken =
  | No_refresh
      (** timestamp pushes skip read-span refreshes, silently advancing
          [read_ts] without validating reads: the serializability checker
          must flag the resulting anti-dependency cycles *)
  | No_recovery
      (** pushes treat every STAGING record as immediately recoverable (no
          liveness grace) and recovery aborts without verifying the
          declared in-flight writes, so an implicitly committed transaction
          can have its acked writes vanish: the serializability checker must
          catch the fallout *)
  | Stale_reads
      (** the chaos register workload serves reads at a bounded-stale
          timestamp but records them as fresh: the linearizability checker
          must catch this *)

type config = {
  max_offset : int;  (** uncertainty interval / max tolerated clock skew *)
  push_delay : int;
      (** how long a conflict waiter waits before (re-)pushing the blocking
          transaction's record — the grace period a live blocker gets to
          finish on its own (default 100 ms) *)
  seed : int;
  autopilot : bool;
      (** read by nothing: callers start [Crdb_autopilot.Autopilot] (which
          lives above this layer, with its own thresholds) themselves. Only
          [bench/perf] still sets it; delete it together with that use. *)
  broken : broken option;
      (** a deliberately broken mode, or [None] (the default) *)
}

val default : config
(** 250 ms max offset (CRDB Dedicated's default, §7.1), 100 ms push delay.

    Build custom configurations with record update syntax, overriding only
    what the scenario needs:
    {[
      Cluster.create ~config:{ Cluster.default with seed = 42; push_delay = 50_000 } ...
    ]}

    Everything else is fixed: Raft elects within 3-6 s and heartbeats every
    1 s, the transport adds up to 5% jitter, and closed timestamps are
    published over the side channel every 100 ms. *)

val conflict_wait_timeout : int
(** Last-resort backstop: how long a read or write may stay parked on a
    conflicting lock or intent before giving up entirely (10 s). With the
    push/wound protocol active, conflicts normally resolve within a few
    [push_delay]s and this never fires on healthy runs; every expiry bumps
    the per-node [kv.conflict_timeouts] counter. *)

val txn_heartbeat_interval : int
(** How often transaction coordinators heartbeat their record (1 s); a
    Pending record silent for 3x this interval is declared abandoned and
    pushers clean up its intents. *)

val propose_timeout : int
(** How long a proposer awaits its command's apply before counting the
    proposal as lost (8 s); a pipelined write's confirmation gets as long. *)

type t

val create :
  ?config:config ->
  topology:Crdb_net.Topology.t ->
  latency:Crdb_net.Latency.t ->
  unit ->
  t

val sim : t -> Crdb_sim.Sim.t
val net : t -> Crdb_net.Transport.t

val obs : t -> Crdb_obs.Obs.t
(** The cluster-wide observability context: [kv.*], [raft.*] and [net.*]
    metrics and cluster events accumulate here unconditionally; enable
    tracing via [Crdb_obs.Trace.enable] to also record spans. *)

val topology : t -> Crdb_net.Topology.t
val config : t -> config
val clock : t -> Crdb_net.Topology.node_id -> Crdb_hlc.Clock.t
val now_ts : t -> Crdb_net.Topology.node_id -> Ts.t
(** Current HLC reading at a node. *)

val set_clock_skew : t -> Crdb_net.Topology.node_id -> int -> unit

(** {2 Range administration} *)

type range_id = int

val add_range :
  t -> span:string * string -> zone:Zoneconfig.t -> policy:policy -> range_id
(** Create a Range covering [\[start, end)], place replicas with the
    allocator and start its Raft group (leaseholder in the preferred
    region). Spans must not overlap existing ranges. *)

val alter_range : t -> range_id -> zone:Zoneconfig.t -> policy:policy -> unit
(** Online locality/survivability change: if the placement no longer
    satisfies [zone], walk the group to a new one like {!rebalance_step}
    does, then move the lease if needed. *)

val drop_range : t -> range_id -> unit
(** Remove the range and its replicas (table/partition dropped). *)

val split_range : t -> range_id -> at:string -> range_id option
(** Split the range at [at] (strictly inside its span) by proposing a split
    trigger through its Raft log: each replica forks its own state into its
    replica of the new right-hand range [\[at, end)] when it applies the
    trigger, and the range becomes routable when the first replica does.
    Returns the reserved right range id, or [None] when the range has no
    serving leaseholder or already has a split in flight.
    @raise Invalid_argument if [at] is outside the span. *)

val merge_range : t -> range_id -> bool
(** Merge the range with its right-hand neighbor (the range starting
    exactly at its end key) by proposing a merge trigger through its Raft
    log. [true] iff proposed: the neighbor has an equal zone config and
    policy, and the range a serving leaseholder with no split in flight.
    The first replica to apply the trigger subsumes the neighbor if it
    still adjoins and has a serving leaseholder, capturing that replica's
    state, which every replica absorbs at the trigger; else it is a no-op.
    The timestamp cache low water and closed timestamp ratchet over the
    subsumed range's, and its parked waiters retry here. *)

val split_point : t -> range_id -> string option
(** The median live key of the range (a reasonable split point), or [None]
    when it holds fewer than two keys or has no leaseholder. *)

val live_bytes : t -> range_id -> int option
(** Live size of the range: key + latest live value bytes of the
    leaseholder's store ({!Crdb_storage.Mvcc.live_bytes}); [None] when the
    range has no live leader. The gauge behind [kv.range.bytes]. *)

val load_split_point : t -> range_id -> string option
(** Load-based split point: the weighted median of the request keys
    recently served through the range (a bounded per-range sample fed by
    every leaseholder op), i.e. the key that halves recent {e traffic}
    rather than the keyspace. Falls back to {!split_point} when the sample
    is too thin; always strictly inside the span. *)

val sampled_keys : t -> range_id -> string list
(** The raw bounded request-key sample behind {!load_split_point}
    (introspection for tests; unordered, duplicates retained). *)

val ranges_in_span :
  t -> start_key:string -> end_key:string -> range_id list
(** All live ranges overlapping [\[start_key, end_key)], ascending by span.
    Resolve spans through this at use time rather than caching range ids:
    splits and merges invalidate cached ids. *)

val rebalance_step : t -> range_id -> bool
(** One allocator-driven rebalance step: if a single-replica substitution
    improves the placement score (constraint violations, then failure-domain
    diversity, then load), walk the group there one single-peer Raft change
    at a time: add the replacement, then remove the victim once the
    replacement has caught up. When the victim is the leaseholder, the lease
    moves away instead and a later pass moves the replica. No step starts
    while a walk is in flight. [true] iff a step was initiated. *)

val settle : t -> unit
(** Run the simulation briefly so that elections complete and initial closed
    timestamps propagate. Call after bulk range creation. *)

val run : t -> (unit -> 'a) -> 'a
(** [run t f] executes [f] as a process and steps the simulation until it
    completes (the cluster's periodic publishers keep the event queue
    non-empty forever, so draining the queue is not a termination
    condition) and all {!spawn_background} tasks have drained — so raw
    replica state inspected between [run] calls is quiescent even when
    clients are acked before post-commit work (intent resolution under
    parallel commits) finishes. @raise Failure on deadlock. *)

val spawn_background : t -> (unit -> unit) -> unit
(** Spawn a task that runs concurrently but is drained by {!run} before it
    returns: post-client-ack work whose completion tests must be able to
    rely on without polling. *)

val run_for : t -> int -> unit
(** Advance the simulation by the given number of microseconds. *)

val range_of_key : t -> string -> range_id
(** @raise Not_found if no range covers the key. *)

val ranges : t -> range_id list
val span_of : t -> range_id -> string * string
val policy_of : t -> range_id -> policy
val zone_of : t -> range_id -> Zoneconfig.t
val replica_nodes : t -> range_id -> (Crdb_net.Topology.node_id * Crdb_raft.Raft.peer_kind) list
val leaseholder : t -> range_id -> Crdb_net.Topology.node_id option
(** Current valid leaseholder, if any (excludes dead nodes and leaders with
    expired leases). *)

val leaseholder_region : t -> range_id -> string option

val rebalance_leases : t -> unit
(** Transfer leadership of every range back to its preferred region when a
    live voter exists there (run after failures heal). *)

val transfer_lease : t -> range_id -> target:Crdb_net.Topology.node_id -> unit
(** Ask the current leaseholder to hand the lease (Raft leadership) to
    [target], which must hold a voting replica; no-op when there is no live
    leader, the target holds no replica, or it already leads. The transfer
    is deferred until the target's log is caught up. *)

val restart_node : t -> Crdb_net.Topology.node_id -> unit
(** Revive a killed node with {e process-restart} semantics: disk-backed
    state (Raft term/vote/log, applied MVCC data) survives, while volatile
    state is discarded — every local replica's lock table, parked conflict
    waiters and side-channel closed-timestamp bookkeeping are reset, and
    Raft resumes as a follower that must re-learn the leader and catch up
    via log replication before its closed timestamps advance again. Pair
    with [Transport.kill_node] to model a crash-restart cycle. *)

val bulk_load : t -> ?ts:Ts.t -> (string * string) list -> unit
(** Install committed versions directly in every replica of the covering
    ranges. Administrative fast path for benchmark dataset loading.
    Replicas whose stores share one map ({!Crdb_storage.Mvcc.shares_map})
    are loaded once and share the result. Every key is routed before any
    is installed.
    @raise Invalid_argument if no range covers some key. *)

val closed_lead_duration : t -> range_id -> int
(** The [Lead] policy's lead: [L_raft + L_replicate + max_offset +]
    the 100 ms publication interval, for this range's current placement
    (§6.2.1). *)

(** {2 Operations} (call within a process)

    A key is read at the leaseholder ({!read}, {!scan}) or, below the
    closed timestamp, at a nearby follower ({!read_follower},
    {!scan_follower}: §5 stale reads and §6.2 present-time reads of GLOBAL
    ranges); the four share one reply family, {!read_reply}, and writes
    and locks answer a {!reply}. Every operation accepts an optional
    operation context [op] ({!Crdb_obs.Op.t}, default the discarding
    {!Crdb_obs.Op.nil}): its span parents the request's spans, and each
    RPC or wait of the request joins it as a branch ({!Crdb_obs.Op.join})
    with its time in named phases — routing, lease_wait, lock_wait,
    replication — and the WAN round trips it incurred (cross-region RPCs,
    plus replication rounds whose quorum reaches outside the leaseholder's
    region). Successful
    leaseholder operations and follower-read hits also feed the per-range
    [kv.range.qps] / [kv.range.write_bytes] / [kv.range.latency]
    timeseries in the cluster's {!Crdb_obs.Timeseries} store. *)

type fate = [ `Live | `Wounded of string | `Aborted ]
(** How the requesting transaction itself has fared, as known to its own
    gateway: the coordinator learns of a wound from heartbeat RPC responses
    and cancels its in-flight requests by answering [`Wounded]/[`Aborted]
    from the [fate] closure it threads into its operations ([`Aborted] too
    once the attempt finished or began its commit). Checked at the head of
    every evaluation and on every conflict-wait tick. *)

type outcome = [ `Applied | `Prevented | `Lost ]
(** What became of a proposal; a pipelined write's comes through the
    [applied] ivar of {!write}: the intent applied on the leaseholder;
    commit-status recovery barred it from ever applying (the commit must
    fail); or it was lost, discarded from the log or not applied within
    {!propose_timeout} (indeterminate: the transaction must restart with an
    ambiguous outcome). It comes from the proposing leaseholder's own apply
    (or discard) of the entry, never from another replica's. *)

type 'a reply = [ `Ok of 'a | `Wounded of string | `Err of string ]
(** [`Wounded]: the requesting transaction was wound-aborted by an older
    conflicting transaction; it must restart (keeping its priority) and
    must not lay further intents. [`Err]: unavailable after retries, a
    timeout, or the transaction was aborted. *)

type 'a read_reply = [ 'a reply | `Uncertain of Ts.t | `Redirect ]
(** [`Uncertain ts]: the caller must ratchet its timestamp to [ts] and
    refresh. [`Redirect]: a follower cannot serve; go to the leaseholder. *)

val read :
  t ->
  ?inline_bump:bool ->
  ?op:Crdb_obs.Op.t ->
  ?pri:Ts.t ->
  ?fate:(unit -> fate) ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int option ->
  key:string ->
  ts:Ts.t ->
  max_ts:Ts.t ->
  unit ->
  (string option * Ts.t) read_reply
(** Consistent read at the leaseholder: [`Ok (value, at)], read at
    timestamp [at]. Blocks while a conflicting lock or intent (with
    timestamp [<= max_ts]) is held; records the read in the timestamp
    cache. With [inline_bump] (CRDB's server-side retry, valid only when
    the transaction has no earlier reads to refresh), uncertainty restarts
    are absorbed at the leaseholder instead of being returned: the value is
    re-read at the uncertain value's timestamp, which [at] carries back for
    the transaction to adopt. Otherwise [at] is [ts]. *)

val read_follower :
  t ->
  ?op:Crdb_obs.Op.t ->
  at:Crdb_net.Topology.node_id ->
  txn:int option ->
  key:string ->
  ts:Ts.t ->
  max_ts:Ts.t ->
  unit ->
  string option read_reply
(** Read on [at]'s local replica without contacting the leaseholder.
    Requires the replica's closed timestamp to cover [max_ts]; otherwise
    [`Redirect]. Blocked intents also redirect (§5.1.1). No timestamp
    cache update is needed: the timestamps are already closed. *)

val scan :
  t ->
  ?op:Crdb_obs.Op.t ->
  ?pri:Ts.t ->
  ?fate:(unit -> fate) ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int option ->
  start_key:string ->
  end_key:string ->
  ts:Ts.t ->
  max_ts:Ts.t ->
  limit:int option ->
  unit ->
  (string * string) list read_reply
(** Leaseholder scan over [[start_key, end_key)]: key, value pairs in key
    order. The request is split into per-range fragments resolved left to
    right through the routing map at use time, so the result is complete
    even after the span has been split into (or merged from) many
    ranges. *)

val scan_follower :
  t ->
  ?op:Crdb_obs.Op.t ->
  at:Crdb_net.Topology.node_id ->
  txn:int option ->
  start_key:string ->
  end_key:string ->
  ts:Ts.t ->
  max_ts:Ts.t ->
  limit:int option ->
  unit ->
  (string * string) list read_reply
(** Follower scan: stitched like {!scan}, with [limit] counting down across
    the fragments, but each fragment is served by [at]'s own replica or the
    nearest live one. [`Redirect] when any fragment lies above that
    replica's closed timestamp or meets an intent. *)

val write :
  t ->
  ?applied:(outcome * Crdb_obs.Op.t) Crdb_sim.Ivar.t ->
  ?op:Crdb_obs.Op.t ->
  ?pri:Ts.t ->
  ?anchor:string ->
  ?fate:(unit -> fate) ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  key:string ->
  value:string option ->
  ts:Ts.t ->
  unit ->
  Ts.t reply
(** Lay a write intent through consensus. [`Ok ts] carries the
    possibly-pushed provisional commit timestamp — above the timestamp
    cache, the newest committed version and the range's closed timestamp
    target: the transaction must commit at or above it (for [Lead] ranges
    it lands in the future), and must hold all its locks until
    {!resolve}.

    [pri] and [anchor] stamp the writer's wound-wait priority and record
    location onto the lock and intent so pushers can find its record; when
    [key = anchor] the apply also registers the transaction record —
    registration rides the first write instead of costing a consensus round
    of its own. Omitting [anchor] marks a raw (recordless) writer.

    With [applied] (write pipelining), the call returns once the intent is
    proposed; [applied] fills at the gateway once the intent's fate is
    known on the leaseholder, with the {!Crdb_obs.Op.fork} of [op] its
    replication round was counted on, for the awaiting transaction to
    {!Crdb_obs.Op.join}. A transaction must await every outstanding
    [applied] — and check it is [`Applied] — before (or concurrently with)
    committing. *)

val write_and_commit :
  t ->
  ?op:Crdb_obs.Op.t ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  key:string ->
  value:string option ->
  ts:Ts.t ->
  unit ->
  Ts.t reply
(** One-phase commit (CRDB's 1PC fast path): lay the intent and resolve it
    as committed in one consensus round; the intermediate lock is never
    observable. Only valid for transactions whose entire effect is this
    single write; commit-wait (if the returned timestamp is in the future)
    remains the caller's responsibility. *)

val resolve :
  t ->
  ?op:Crdb_obs.Op.t ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  commit:Ts.t option ->
  keys:string list ->
  unit ->
  unit
(** Commit ([Some ts]) or abort ([None]) the transaction's intents on the
    given keys. The call returns once the range holding the first key — the
    transaction's anchor — has resolved its intents; every other range
    resolves its own in the background. *)

val refresh :
  t ->
  ?op:Crdb_obs.Op.t ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  key:string ->
  from_ts:Ts.t ->
  to_ts:Ts.t ->
  unit ->
  bool
(** Read refresh (§5.1): [true] iff no committed version or foreign intent
    appeared on [key] in [(from_ts, to_ts]]. On success the read is
    re-recorded at [to_ts] in the timestamp cache. *)

val refresh_span :
  t ->
  ?op:Crdb_obs.Op.t ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  start_key:string ->
  end_key:string ->
  from_ts:Ts.t ->
  to_ts:Ts.t ->
  unit ->
  bool
(** Span version of {!refresh}, validating a previous scan (including the
    absence of phantom rows with live conflicts in the window). Like
    {!scan}, the span is re-resolved into its current covering ranges, so
    refreshes stay sound across concurrent splits and merges. *)

val negotiate :
  t -> at:Crdb_net.Topology.node_id -> keys:string list -> Ts.t
(** Bounded-staleness negotiation (§5.3.2): the highest timestamp at which
    all [keys] can be served by [at]'s local replicas without blocking —
    the minimum over ranges of the local closed timestamp and of any
    conflicting intent timestamps. *)

val local_closed : t -> at:Crdb_net.Topology.node_id -> range_id -> Ts.t
(** The closed timestamp of the replica of this range at node [at]
    ([Ts.zero] if the node holds no replica). *)

(** {2 Transaction records (wound-wait + parallel commits)}

    A transaction's record lives in the range holding its {e anchor key}
    (its first write) — replicated state of that range, not a cluster-global
    table — and every record operation below is an ordinary routed RPC
    against the anchor leaseholder. The coordinator's transitions and
    recovery's finalization are each one {!txn_update}, and a push
    proposes its wound or abandonment itself, all through the range's
    Raft log. Transitions are first-decision-wins, and the log's
    apply order is the total order that decides commit-vs-wound races; each
    call returns the {e applied} status, which may reflect a racing
    decision rather than the requested one.

    Registration piggybacks on the first write ({!write} with
    [key = anchor]); the coordinator heartbeats the record every
    [txn_heartbeat_interval]. Waiters blocked on the transaction's locks or
    intents push the record every [push_delay] at its anchor range: an
    older pusher wounds a Pending record, a younger pusher queues, a record
    silent for 3x [txn_heartbeat_interval] is aborted as abandoned, and a
    stale STAGING record triggers commit-status recovery ({!recover_txn}).
    Raw writers ({!write} without [anchor], {!write_and_commit}) have no
    record and are only ever reclaimed by abandonment of the pusher-created
    stub. *)

val txn_update :
  t ->
  ?op:Crdb_obs.Op.t ->
  gateway:Crdb_net.Topology.node_id ->
  name:string ->
  txn:int ->
  key:string ->
  Txnrec.update ->
  Txnrec.status option
(** Propose one record transition ({!Txnrec.update}) at [key]'s
    leaseholder, under a span named [name], and return the applied status;
    [None] when the range is unreachable, the proposal was lost, or no
    record exists. The coordinator heartbeats with [U_heartbeat]
    ([kv.txn_heartbeat]), whose status tells it of a wound or abort while
    it runs; stages a parallel commit with [U_stage] ([kv.txn_stage]),
    implicitly committed once it applies as [Staging] {e and} every
    declared write acked [`Applied]; commits, or finalizes an implicit
    commit, with [U_commit] ([kv.txn_commit]); and rolls back with
    [U_coord_abort] ([kv.txn_abort]). *)

val txn_status :
  t ->
  ?op:Crdb_obs.Op.t ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  key:string ->
  unit ->
  Txnrec.status option
(** Read the applied record at the anchor leaseholder. [None] when the
    transaction never registered (and was never pushed) or the range is
    unreachable. *)

val query_intent :
  t ->
  gateway:Crdb_net.Topology.node_id ->
  ?op:Crdb_obs.Op.t ->
  txn:int ->
  key:string ->
  ts:Ts.t ->
  unit ->
  [ `Found | `Missing | `Unknown ]
(** QueryIntent with prevention (parallel-commit recovery): did [txn]'s
    declared write on [key] at [ts] replicate? The probe is proposed
    through the key's own Raft log, totally ordering it against the write
    it races: [`Missing] additionally bars the write from ever applying.
    Routing or proposal failures answer [`Unknown] — recovery must treat
    them as inconclusive, never as evidence of a missing write. *)

val recover_txn :
  t ->
  gateway:Crdb_net.Topology.node_id ->
  ?op:Crdb_obs.Op.t ->
  txn:int ->
  anchor_key:string ->
  ts:Ts.t ->
  inflight:string list ->
  unit ->
  Ts.t option option
(** Commit-status recovery against a STAGING record: verify every declared
    in-flight write with {!query_intent}, then finalize the record —
    [Committed] when all landed (the implicit commit had succeeded),
    [Aborted] when one is proven missing. [Some commit] means the record is
    now finalized and the caller may resolve the transaction's intents with
    [commit]; [None] means recovery was inconclusive and the caller should
    keep waiting. Runs automatically from conflict waits; exposed for
    tests. *)

(** {2 Introspection for tests and benchmarks} *)

val state_of :
  t -> range_id -> Crdb_net.Topology.node_id -> Replica_state.t option

val shared_effects : t -> range_id -> int
(** The number of log indexes whose effects the range still holds for
    replicas that have not applied them: live ones, and with a leaseholder
    only those it can reach (see {!Replica_state.shared}). *)

val applied_index : t -> range_id -> Crdb_net.Topology.node_id -> int option
(** The log index the node's replica of the range has applied through. *)

val leader_peers :
  t -> range_id -> (Crdb_net.Topology.node_id * Crdb_raft.Raft.peer_kind) list
(** The applied peers of the range's live Raft leader; [[]] if none. *)
