(** The distributed KV layer: Ranges, replicas, leases and closed timestamps.

    A cluster owns the simulator, one HLC clock per node, the transport, and
    a set of Ranges. Each Range covers a contiguous key span, is replicated
    with Raft according to its {!Zoneconfig.t}, and closes timestamps under
    one of two policies:

    - [Lag d]: the leaseholder closes [now - d] (usually {!close_lag},
      3 s), enabling follower reads of sufficiently stale data (§5);
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

type policy = Lag of int | Lead

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

val close_lag : int
(** The [Lag] policy's usual duration, 3 s: every [Lag] range the library
    creates uses it. *)

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
(** Re-derive placement for a new configuration, reconfigure the group and
    move the lease if needed (online locality/survivability change). *)

val drop_range : t -> range_id -> unit
(** Remove the range and its replicas (table/partition dropped). *)

val split_range : t -> range_id -> at:string -> range_id option
(** Split the range at [at] (which must lie strictly inside its span),
    forking its MVCC state, zone config, policy, timestamp cache and closed
    timestamps into a new right-hand range covering [\[at, end)]. The split
    is atomic in simulated time; the left leaseholder's node is preferred
    for the right range's lease. Returns the right range's id, or [None]
    when the range currently has no leaseholder to fork from.
    @raise Invalid_argument if [at] is outside the span. *)

val merge_range : t -> range_id -> bool
(** Merge the range with its right-hand neighbor (the range starting
    exactly at its end key), subsuming the neighbor: MVCC state is
    absorbed, the timestamp cache low water and closed timestamp ratchet
    over the subsumed range's, and waiters parked there are woken to retry
    against the merged range. [false] (and no effect) when there is no
    adjacent neighbor, the zone configs or policies differ, or either side
    lacks a live leaseholder. *)

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
    diversity, then load), add the replacement through a single-step Raft
    membership change and remove the victim once the replacement has caught
    up (add-then-remove, one replica at a time). When the victim is the
    leaseholder itself, the lease is transferred away instead and the move
    is left to a later pass. [true] iff a step was initiated. *)

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
    ranges. Administrative fast path for benchmark dataset loading. *)

val closed_lead_duration : t -> range_id -> int
(** The [Lead] policy's lead: [L_raft + L_replicate + max_offset +]
    the 100 ms publication interval, for this range's current placement
    (§6.2.1). *)

(** {2 Operations} (call within a process)

    Every operation accepts an optional [phases] context
    ({!Crdb_obs.Phase.ctx}, default the discarding {!Crdb_obs.Phase.nil})
    that accumulates the request's time into named phases — routing,
    lease_wait, lock_wait, replication — and counts the WAN round trips it
    incurs (cross-region RPCs, plus replication rounds whose quorum reaches
    outside the leaseholder's region). Successful leaseholder operations and
    follower-read hits also feed the per-range [kv.range.qps] /
    [kv.range.write_bytes] / [kv.range.latency] timeseries in the cluster's
    {!Crdb_obs.Timeseries} store. *)

type fate = [ `Live | `Wounded of string | `Aborted ]
(** How the requesting transaction itself has fared, as known to its own
    gateway: the coordinator learns of a wound from heartbeat RPC responses
    and cancels its in-flight requests by answering [`Wounded]/[`Aborted]
    from the [fate] closure it threads into its operations. Checked at the
    head of every evaluation and on every conflict-wait tick. *)

type write_ack = [ `Applied | `Prevented | `Dropped ]
(** Resolution of a pipelined write, delivered through the [applied] ivar:
    the intent applied on the leaseholder; commit-status recovery barred it
    from ever applying (the transaction's commit must fail); or its
    proposal was discarded from the log without committing (indeterminate —
    the transaction must restart with an ambiguous outcome). *)

type read_result =
  | Read_value of { value : string option; ts : Ts.t }
  | Read_uncertain of { value_ts : Ts.t }
      (** caller must ratchet its timestamp to [value_ts] and refresh *)
  | Read_redirect  (** follower cannot serve; go to the leaseholder *)
  | Read_wounded of string
      (** the reading transaction was wound-aborted by an older conflicting
          transaction while it waited; restart with the same priority *)
  | Read_err of string  (** unavailable after retries / timeout *)

val read :
  t ->
  ?inline_bump:bool ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
  ?pri:Ts.t ->
  ?fate:(unit -> fate) ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int option ->
  key:string ->
  ts:Ts.t ->
  max_ts:Ts.t ->
  unit ->
  read_result
(** Consistent read at the leaseholder. Blocks while a conflicting lock or
    intent (with timestamp [<= max_ts]) is held; records the read in the
    timestamp cache. With [inline_bump] (CRDB's server-side retry, valid
    only when the transaction has no earlier reads to refresh), uncertainty
    restarts are absorbed at the leaseholder instead of being returned. *)

val read_follower :
  t ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
  at:Crdb_net.Topology.node_id ->
  txn:int option ->
  key:string ->
  ts:Ts.t ->
  max_ts:Ts.t ->
  unit ->
  read_result
(** Read on [at]'s local replica without contacting the leaseholder.
    Requires the replica's closed timestamp to cover [max_ts]; otherwise
    [Read_redirect]. Blocked intents also redirect (§5.1.1). No timestamp
    cache update is needed: the timestamps are already closed. *)

type scan_result =
  | Scan_rows of (string * string) list  (** key, value pairs in key order *)
  | Scan_uncertain of { value_ts : Ts.t }
  | Scan_redirect
  | Scan_wounded of string  (** see {!read_result.Read_wounded} *)
  | Scan_err of string

val scan :
  t ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
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
  scan_result
(** Leaseholder scan over [[start_key, end_key)]. The request is split into
    per-range fragments resolved left to right through the routing map at
    use time, so the result is complete even after the span has been split
    into (or merged from) many ranges. *)

val scan_follower :
  t ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
  at:Crdb_net.Topology.node_id ->
  txn:int option ->
  start_key:string ->
  end_key:string ->
  ts:Ts.t ->
  max_ts:Ts.t ->
  limit:int option ->
  unit ->
  scan_result
(** Follower scan: stitched like {!scan}, with [limit] counting down across
    the fragments, but each fragment is served by [at]'s own replica or the
    nearest live one. [Scan_redirect] when any fragment lies above that
    replica's closed timestamp or meets an intent. *)

type write_result =
  | Write_ok of Ts.t
      (** the possibly-pushed provisional commit timestamp: above the
          timestamp cache, above the newest committed version, and above the
          range's closed timestamp target *)
  | Write_wounded of string
      (** the writing transaction was wound-aborted by an older conflicting
          transaction; it must restart (keeping its priority) and must not
          lay further intents *)
  | Write_err of string

val write :
  t ->
  ?applied:write_ack Crdb_sim.Ivar.t ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
  ?pri:Ts.t ->
  ?anchor:string ->
  ?fate:(unit -> fate) ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  key:string ->
  value:string option ->
  ts:Ts.t ->
  unit ->
  write_result
(** Lay a write intent through consensus. On [Write_ok ts], the transaction
    must commit at or above [ts] (for [Lead] ranges it lands in the future),
    and must hold all its locks until {!resolve}.

    [pri] and [anchor] stamp the writer's wound-wait priority and record
    location onto the lock and intent so pushers can find its record; when
    [key = anchor] the apply also registers the transaction record —
    registration rides the first write instead of costing a consensus round
    of its own. Omitting [anchor] marks a raw (recordless) writer.

    With [applied] (write pipelining), the call returns once the intent is
    proposed; [applied] fills at the gateway once the intent's fate is
    known on the leaseholder. A transaction must await every outstanding
    [applied] — and check it is [`Applied] — before (or concurrently with)
    committing. *)

val lock_key :
  t ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
  ?pri:Ts.t ->
  ?anchor:string ->
  ?fate:(unit -> fate) ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  key:string ->
  ts:Ts.t ->
  strength:Lock_table.strength ->
  unit ->
  write_result
(** SELECT FOR UPDATE / FOR SHARE: take an unreplicated
    [Lock_table.strength] lock on [key] at the leaseholder without laying an
    intent. Blocks (through the same wound-wait push protocol as writes)
    while a conflicting holder or intent exists; a [Shared] request only
    conflicts with [Exclusive] holders, and an [Exclusive] request over the
    caller's own [Shared] grip upgrades it once other holders are pushed
    away. The lock is leaseholder-local (dropped on lease transfer or node
    restart) — a contention-avoidance hint; serializability remains
    guaranteed by commit-time read refreshes. Released by {!resolve} along
    with the transaction's write intents. *)

val write_and_commit :
  t ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
  ?pri:Ts.t ->
  ?fate:(unit -> fate) ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  key:string ->
  value:string option ->
  ts:Ts.t ->
  unit ->
  (Ts.t, string) result
(** One-phase commit (CRDB's 1PC fast path): lay the intent and resolve it
    as committed in one consensus round; the intermediate lock is never
    observable. Only valid for transactions whose entire effect is this
    single write; commit-wait (if the returned timestamp is in the future)
    remains the caller's responsibility. *)

val resolve :
  t ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  commit:Ts.t option ->
  keys:string list ->
  sync_all:bool ->
  unit ->
  unit
(** Commit ([Some ts]) or abort ([None]) the transaction's intents on the
    given keys. The resolution on the range holding the first key — the
    transaction's commit record — is always awaited (that consensus round is
    the commit point); the rest are awaited only when [sync_all]. *)

val refresh :
  t ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
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
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
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
    against the anchor leaseholder, proposing a transition through the
    range's Raft log. Transitions are first-decision-wins, and the log's
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

val heartbeat_txn :
  t ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  key:string ->
  unit ->
  Txnrec.status option
(** Ratchet the record's heartbeat; the applied status tells the
    coordinator when it has been wounded or aborted while running. [None]
    when the record does not exist (first write not yet applied) or the
    anchor range is unreachable. *)

val stage_txn :
  t ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  key:string ->
  pri:Ts.t ->
  ts:Ts.t ->
  inflight:string list ->
  unit ->
  Txnrec.status option
(** Parallel commit: move the record to [Staging] with the commit
    timestamp and the keys of still-unacknowledged intent writes,
    concurrently with those writes' replication. The transaction is
    implicitly committed once this returns [Staging] {e and} every declared
    write acked [`Applied]; the coordinator then acks its client and
    finalizes the record asynchronously with {!commit_txn}. Creates the
    record if the registering write has not applied yet. *)

val commit_txn :
  t ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  key:string ->
  ts:Ts.t ->
  unit ->
  Txnrec.status option
(** Explicit commit (the non-parallel path, and the asynchronous
    finalization after an implicit parallel commit). The transaction is
    committed iff the applied status comes back [Committed]; [Aborted]
    means a wound or recovery won the race and the transaction must
    restart. *)

val abort_txn :
  t ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
  gateway:Crdb_net.Topology.node_id ->
  txn:int ->
  key:string ->
  reason:string ->
  unit ->
  Txnrec.status option
(** Coordinator rollback; creates an aborted stub if no record exists, so
    late writes stay rejected. *)

val txn_status :
  t ->
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
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
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
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
  ?span:Crdb_obs.Trace.span ->
  ?phases:Crdb_obs.Phase.ctx ->
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

val storage_of : t -> range_id -> Crdb_net.Topology.node_id -> Crdb_storage.Mvcc.t option
