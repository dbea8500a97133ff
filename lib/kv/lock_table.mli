(** Per-replica lock table: unreplicated write locks plus conflict waiters.

    Owns the state that used to live in two ad-hoc hashtables on every
    replica ([r_locks] / [r_resolve_waiters]): the in-memory lock a
    transactional writer holds on its key on the leaseholder while its
    intent replicates, and the queues of operations parked on a key until
    its lock is released or its intent resolved. Lock waiters and intent
    waiters share one queue per key — a wakeup is only a hint to
    re-evaluate, so a spurious wakeup costs one re-check and the caller
    parks again.

    Writers are the only lock takers, so a key has at most one lock, held
    by one transaction. Conflicts resolve through the wound-wait push
    protocol.

    The table is pure bookkeeping: pushing, wounding and timeouts live in
    [Cluster.wait_on_conflict]. *)

module Ivar = Crdb_sim.Ivar
module Ts = Crdb_hlc.Timestamp

type lock

val holder : lock -> int

val lock_pri : lock -> Ts.t
(** The holder's wound-wait priority timestamp, stamped at {!acquire} so a
    pusher can address the holder's record without a global registry. *)

val lock_anchor : lock -> string
(** The holder's anchor key (where its transaction record lives); [""] for
    recordless writers. *)

type t

val create : unit -> t

(** {1 Locks} *)

val foreign : t -> key:string -> txn:int option -> max_ts:Ts.t -> lock option
(** The lock on [key] if another transaction holds it at a timestamp
    [<= max_ts] (the visibility rule readers use). *)

val foreign_in_span :
  t -> start_key:string -> end_key:string -> txn:int option -> max_ts:Ts.t -> (string * lock) option
(** Any lock on a key in [[start_key, end_key)] that {!foreign} would
    return, for scans and span refreshes; the key identifies where to
    park. *)

val foreign_for : t -> key:string -> txn:int -> lock option
(** The lock on [key] if another transaction holds it, at any timestamp:
    what blocks [txn] from writing [key]. *)

val acquire :
  t -> ?pri:Ts.t -> ?anchor:string -> key:string -> txn:int -> ts:Ts.t ->
  unit -> bool
(** Take or ratchet [txn]'s lock on [key]. Returns [true] if the lock was
    newly taken (the caller must [release] it if its proposal fails),
    [false] if [txn] already held it and only the timestamp was ratcheted.
    The caller must have established that no other transaction holds the
    key ({!foreign_for}). *)

val release : t -> key:string -> txn:int -> unit
(** Drop the lock on [key] if [txn] holds it (a lock another writer has
    taken since stays), then wake all waiters on [key]. *)

(** {1 Waiters} *)

val park : t -> key:string -> unit Ivar.t
(** Enqueue a fresh waiter on [key] and return its wakeup ivar. *)

val unpark : t -> key:string -> unit Ivar.t -> unit
(** Remove a specific waiter (no-op if a wake already consumed it). *)

(** {1 Lifecycle} *)

val clear_locks : t -> unit
(** Snapshot install: replicated state replaced wholesale, so in-memory
    locks are stale; waiters stay parked (their conflicts re-resolve). *)

val reset : t -> unit
(** Node restart: locks die with the process and every waiter is woken so
    its RPC can fail over instead of waiting on a dead node. *)

val wake_all : t -> unit
(** Wake every waiter (range subsumed by a merge). *)

val split_move : t -> into:t -> at:string -> unit
(** Move locks and waiters on keys [>= at] to the right-hand table. *)
