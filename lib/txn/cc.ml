(* Shared types of the transaction layer: the coordinator's manager, one
   attempt's state and the exceptions that drive [Txn.run]'s retry loop.
   The machinery that operates on them is [Cc_base]. *)

module Cluster = Crdb_kv.Cluster
module Lock_table = Crdb_kv.Lock_table
module Ts = Crdb_hlc.Timestamp
module Obs = Crdb_obs.Obs
module Trace = Crdb_obs.Trace
module Metrics = Crdb_obs.Metrics
module Phase = Crdb_obs.Phase
module Hist = Crdb_stats.Hist
module Ivar = Crdb_sim.Ivar

type strength = Lock_table.strength = Shared | Exclusive

module Options = struct
  type t = {
    hold_locks_during_commit_wait : bool;
        (* Spanner-style ablation: resolve intents only after commit wait *)
    pipelined_writes : bool;
    parallel_commits : bool;
        (* stage the commit record concurrently with the in-flight intent
           writes' replication (CRDB parallel commits); off, the commit
           record is only written after every intent has replicated *)
    unsafe_no_refresh : bool;
        (* deliberately broken mode: timestamp pushes skip read-span
           validation, so stale reads can commit (the serializability checker
           must catch the resulting anti-dependency cycles) *)
  }

  let default =
    {
      hold_locks_during_commit_wait = false;
      pipelined_writes = true;
      parallel_commits = true;
      unsafe_no_refresh = false;
    }
end

type stats = {
  mutable commits : int;
  mutable restarts : int;
  mutable wounds : int;
  mutable reader_commit_waits : int;
  mutable writer_commit_wait_micros : int;
}

type manager = {
  cl : Cluster.t;
  mutable next_txn_id : int;
  stats : stats;
  mutable opts : Options.t;
  obs : Obs.t;
  c_attempts : Metrics.counter array;
  c_commits : Metrics.counter array;
  c_restarts : Metrics.counter array;
  c_wounds : Metrics.counter array;
  c_refreshes : Metrics.counter array;
  c_reader_waits : Metrics.counter array;
  h_commit_wait : Hist.t;
}

type read_span = Point of string | Span of string * string

type attempt = {
  mgr : manager;
  id : int;
  gw : int;
  pri : Ts.t; (* wound-wait priority: first-attempt birth timestamp *)
  mutable read_ts : Ts.t;
  max_ts : Ts.t; (* uncertainty upper bound; never changes (§6.1) *)
  mutable write_ts : Ts.t;
  mutable reads : read_span list;
  mutable writes : string list; (* newest first; the anchor is the oldest *)
  mutable anchor : string option;
      (* first written key: where the transaction record lives; [None]
         until the first write succeeds (read-only txns have no record) *)
  mutable outstanding : (string * Cluster.write_ack Ivar.t) list;
      (* pipelined write acks, keyed for read-your-own-writes *)
  mutable fate_ : Cluster.fate;
      (* the coordinator's own view of its fate, fed by heartbeat RPC
         responses; threaded as a closure into every KV op so a wounded
         transaction cancels its in-flight requests *)
  mutable finished : bool; (* stops the heartbeat loop *)
  mutable observed_future : bool;
  mutable commit_initiated : bool;
      (* the commit record may have been proposed: a failure after this
         point leaves the outcome indeterminate, not aborted *)
  mutable sp : Trace.span;  (* this attempt's span; KV ops parent under it *)
  phases : Phase.ctx;
      (* phase-latency accumulator shared by every attempt of one [run];
         KV ops charge Routing/Lease_wait/Lock_wait/Replication into it,
         the coordinator charges Refresh/Commit_wait/Retry_backoff *)
  mutable rlocks : string list;
      (* keys this attempt explicitly locked (FOR UPDATE / FOR SHARE)
         without writing; released alongside the write intents *)
}

let fate_of t () = t.fate_

exception Restart of string

exception Wounded of string
(* wound-wait: an older transaction aborted this one to break a deadlock;
   restartable like [Restart], but counted separately *)

exception Fatal of string

exception Indeterminate of string
(* raised only after the commit record may have been proposed, when its
   fate could not be learned from the record either: the attempt may have
   committed, so neither rolling back its intents nor retrying the body is
   sound. Internal: [Txn.run] converts it into an [Unavailable] error and an
   [Attempt_indeterminate] outcome without touching the intents. *)
