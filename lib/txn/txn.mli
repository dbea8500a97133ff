(** Transaction coordination.

    The public transaction API. Implements CRDB's transaction model on top
    of {!Crdb_kv.Cluster} with the paper's concurrency control: pessimistic
    per-range lock tables, pipelined intents, parallel commits and
    wound-wait deadlock resolution:

    - {b Serializable read-write transactions} with uncertainty intervals and
      read refreshes (§6.1, [60 §3]). Reads go to leaseholders; reads of
      GLOBAL (future-closing) ranges are served by the nearest replica at
      present time. Writes pipeline intents at the provisional commit
      timestamp; commit refreshes reads if the timestamp was pushed, then
      resolves intents, then {b commit-waits} until the coordinator's HLC
      passes the commit timestamp (§6.2) — concurrently with lock release,
      unlike Spanner.
    - {b Reader-side commit waits}: a transaction that observed a value with
      a future timestamp inside its uncertainty window waits out the
      remainder before completing, preserving single-key linearizability
      (§6.2, Fig. 2).
    - {b Stale read-only transactions}: exact staleness ([AS OF SYSTEM
      TIME]) and bounded staleness ([with_max_staleness]) with timestamp
      negotiation (§5.3); both served by nearby replicas whenever closed
      timestamps allow.

    Restartable conditions (failed refresh after a timestamp push, wounds
    from older transactions, conflict timeouts) are retried internally with
    a fresh transaction id and timestamp, like CRDB's automatic
    per-statement retries. Each transaction's record lives in the range
    holding its first written key (the {e anchor}), is created by that
    write's replicated apply, and is heartbeated while its gateway is
    alive; wound-wait conflict resolution (see [DESIGN.md]) pushes the
    record through ordinary routed RPCs to wound, recover, or clean up
    after blockers. *)

module Cluster = Crdb_kv.Cluster
module Ts = Crdb_hlc.Timestamp

type manager

val create_manager : Cluster.t -> manager
(** A transaction coordinator over the cluster: allocates transaction ids
    and registers the [txn.*] metrics in the cluster's registry. *)

(** {2 Options} *)

module Options : sig
  type t = {
    pipelined_writes : bool;
        (** Disable to make every intent write await its consensus round
            (ablation of CRDB-style write pipelining). Default [true]. *)
    parallel_commits : bool;
        (** Commit by writing a STAGING transaction record in parallel with
            the final batch of intent writes; the transaction is implicitly
            committed once all have replicated (one consensus round of
            client-visible commit latency). Disable to flip the record to
            COMMITTED only after every intent has replicated (ablation of
            CRDB-style parallel commits). Default [true]. *)
  }

  val default : t
end

val set_options : manager -> Options.t -> unit
(** Replace the manager's options wholesale; use
    [{ Txn.Options.default with pipelined_writes = false }] to tweak one
    knob. *)

val options : manager -> Options.t

(** {2 Read-write transactions} *)

type t
(** One transaction attempt. Valid only inside the callback of {!run}. *)

type error = Aborted of string | Unavailable of string

val pp_error : Format.formatter -> error -> unit

exception Restart of string
(** Raised internally on restartable conditions; user code may also raise it
    to force a retry with a new timestamp. *)

exception Wounded of string
(** Raised when an older transaction wounded this one to break a deadlock
    (wound-wait). Restartable: {!run} retries with a fresh id and timestamp
    but the {e same} wound-wait priority, so the retried transaction keeps
    aging toward the front of the queue. *)

exception Fatal of string
(** Raised by read-only transactions when no replica can serve them (for
    example, a bounded-staleness read whose bound is not locally closed and
    whose leaseholder is unavailable). *)

type attempt_outcome =
  | Attempt_committed of Ts.t  (** committed at this MVCC timestamp *)
  | Attempt_aborted of string  (** definitely had no effect *)
  | Attempt_indeterminate of string * Ts.t
      (** the commit record may have been proposed before the failure: the
          attempt either aborted or committed at exactly this timestamp *)

val run :
  manager ->
  gateway:Crdb_net.Topology.node_id ->
  ?max_attempts:int ->
  ?op:Crdb_obs.Op.t ->
  ?on_attempt:(t -> attempt_outcome -> unit) ->
  (t -> 'a) ->
  ('a, error) result
(** Execute the body as a serializable transaction; commits on return,
    aborts if the body raises. Automatically retried (fresh timestamp and
    txn id) on restartable errors, [max_attempts] times (default 25). The
    result is returned only after the commit point {e and} any commit wait,
    so client-observed latency is faithful.

    [op] receives the phase-latency decomposition of the whole run —
    routing, lease and lock waits, replication rounds, read refreshes,
    commit wait, retry backoff — plus the WAN round-trip count, summed
    across every attempt, and its span parents the run's root span. When
    omitted, the run makes its own operation and flushes it into the
    manager's [phase.txn.*] and [wan_rtts.txn] histograms on completion; a
    caller-supplied operation is charged but left unflushed, so the caller
    can aggregate several transactions into one op class (see
    {!Crdb_obs.Op.flush}).

    [on_attempt] is called once per physical attempt, after it committed or
    failed but before any retry, with the attempt's handle (so [txn_id]
    remains readable) and its precise fate — the hook history recorders use
    to log every attempt, including ones whose commit record raced a
    failure and whose outcome the client never learned. *)

val get : t -> string -> string option
val put : t -> string -> string -> unit
val delete : t -> string -> unit

val scan : t -> start_key:string -> end_key:string -> ?limit:int -> unit -> (string * string) list
(** Scan of [[start_key, end_key)] at the read timestamp. The span may
    cross ranges: {!Crdb_kv.Cluster.scan} stitches the per-range
    fragments. *)

val txn_id : t -> int
val gateway : t -> Crdb_net.Topology.node_id

val run_blind_put :
  manager ->
  gateway:Crdb_net.Topology.node_id ->
  ?max_attempts:int ->
  ?op:Crdb_obs.Op.t ->
  string ->
  string ->
  (unit, error) result
(** A single-key blind-write auto-commit transaction using the one-phase
    commit fast path: one consensus round, no observable lock window, plus
    the commit wait when the range closes future timestamps. *)

(** {2 Read-only transactions} *)

type ro
(** Read-only context for stale and present-time follower reads. *)

val ro_get : ro -> string -> string option
val ro_scan : ro -> start_key:string -> end_key:string -> ?limit:int -> unit -> (string * string) list
val ro_ts : ro -> Ts.t

val run_stale_exact :
  manager ->
  gateway:Crdb_net.Topology.node_id ->
  ts:Ts.t ->
  (ro -> 'a) ->
  'a
(** [AS OF SYSTEM TIME <ts>] (§5.3.1): reads at exactly [ts], served from
    the closest replica whose closed timestamp covers it, else from the
    leaseholder. *)

val run_stale_bounded :
  manager ->
  gateway:Crdb_net.Topology.node_id ->
  max_staleness:int ->
  keys:string list ->
  (ro -> 'a) ->
  'a
(** [with_max_staleness] (§5.3.2): negotiates the highest timestamp at which
    all [keys] can be served locally without blocking; falls back to the
    staleness bound (and thus possibly the leaseholder) if negotiation
    yields an older timestamp. *)

val run_fresh_read :
  manager ->
  gateway:Crdb_net.Topology.node_id ->
  ?max_attempts:int ->
  ?op:Crdb_obs.Op.t ->
  (ro -> 'a) ->
  ('a, error) result
(** Present-time read-only transaction. Reads of GLOBAL ranges are served
    by the nearest replica; reads of REGIONAL ranges go to leaseholders.
    Commit-waits if a future-time value was observed. *)
