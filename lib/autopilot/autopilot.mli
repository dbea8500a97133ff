(** Autopilot: load-driven background queues (split / merge / rebalance).

    CRDB's store queues in miniature (§3.2): once {!start}ed, every store
    runs a recurring scan over the ranges it currently leads and reshapes
    the cluster under traffic without operator involvement —

    - {e split queue}: a range whose windowed [kv.range.qps] rate exceeds
      [split_qps], or whose live size exceeds 512 KB, is split at the
      {e load-based} split point ({!Crdb_kv.Cluster.load_split_point} — the
      weighted median of recently sampled request keys, falling back to the
      median live key);
    - {e merge queue}: adjacent pairs whose combined QPS sits under 1.0 and
      whose combined live size sits under [merge_bytes] are merged back (the
      byte ceiling is kept well below the split trigger so the two queues
      cannot oscillate);
    - {e rebalance queue}: leases move to the least-loaded live voter of
      the best lease-preference rank
      ({!Crdb_kv.Allocator.preferred_leaseholder_by_load}), and the
      allocator moves replicas one step at a time
      ({!Crdb_kv.Cluster.rebalance_step}).

    Anti-thrash hysteresis: every action arms a per-range cooldown
    ([cooldown]); a due-but-blocked action is logged as a [queue_skipped]
    event. A lease move must additionally reduce the donor's leaseholder
    load by 25% {e and} by more than the moved range's own load, so the
    recipient can never end up hotter than the donor was — on a balanced
    topology the queues are provably no-ops.

    Ticks are plain simulator timers (no coroutine primitives), so the
    queues survive any nemesis interleaving: a killed store simply skips
    its scans until restarted, and every lifecycle call under a vanished
    leaseholder degrades to a no-op. The thresholds tests vary to isolate
    one queue live in {!config}; the rest are fixed. *)

type config = {
  scan_interval : int;  (** period of each store's scan loop *)
  split_qps : float;
      (** windowed [kv.range.qps] rate above which the split queue fires *)
  merge_bytes : int;
      (** combined live size ceiling for merges; kept well under the 512 KB
          split trigger so split and merge cannot oscillate *)
  cooldown : int;
      (** minimum simulated time between actions on the same range — the
          hysteresis that prevents ping-pong thrash *)
}

val default : config
(** 500 ms scans, 20 QPS split trigger, 128 KB merge ceiling, 3 s
    cooldown. *)

type t

type stats = {
  mutable auto_splits : int;  (** splits decided by the split queue *)
  mutable auto_merges : int;  (** merges the merge queue proposed *)
  mutable lease_moves : int;  (** load-driven lease transfers *)
  mutable replica_moves : int;  (** allocator rebalance steps initiated *)
  mutable skips : int;  (** due actions suppressed by the cooldown *)
}

val start : ?config:config -> Crdb_kv.Cluster.t -> t
(** Spawn one staggered recurring scan per store ([config] defaults to
    {!default}). Callable from outside any process context; scans begin
    within one [scan_interval]. *)

val stop : t -> unit
(** Stop all scans after the currently scheduled ticks fire (idempotent;
    the queues take no further actions). *)

val stats : t -> stats
(** Live decision counters (the bench's convergence evidence). *)
