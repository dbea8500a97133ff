(** Per-replica lock table: unreplicated locks plus conflict waiters.

    Owns the state that used to live in two ad-hoc hashtables on every
    replica ([r_locks] / [r_resolve_waiters]): the in-memory locks taken by
    transactional writers (and SELECT FOR UPDATE / FOR SHARE readers) on the
    leaseholder, and the queues of operations parked on a key until its lock
    is released or its intent resolved. Lock waiters and intent waiters
    share one queue per key — a wakeup is only a hint to re-evaluate, so a
    spurious wakeup costs one re-check and the caller parks again.

    Each key is held either by a single [Exclusive] lock (transactional
    writers, FOR UPDATE) or by any number of compatible [Shared] locks (FOR
    SHARE); a Shared holder may upgrade to Exclusive once it is the sole
    holder. Conflicts between acquirers resolve through the same wound-wait
    push protocol as write-write conflicts.

    The table is pure bookkeeping: pushing, wounding and timeouts live in
    [Cluster.wait_on_conflict]; the typed [outcome] every conflicting
    evaluation receives is defined here so all layers share it. *)

module Ivar = Crdb_sim.Ivar
module Ts = Crdb_hlc.Timestamp

type outcome =
  | Acquired
      (** the conflict cleared (or routing changed) — re-evaluate the op *)
  | Wounded of string
      (** the *waiting* transaction was wounded by an older pusher while
          parked: restartable, surfaced as [Txn.Wounded] *)
  | Pusher_aborted
      (** the waiting transaction was aborted for another reason (e.g.
          abandonment) while parked *)
  | Timed_out  (** last-resort backstop: [conflict_wait_timeout] elapsed *)

type strength =
  | Shared
      (** SELECT FOR SHARE: compatible with other Shared holders, blocks
          Exclusive acquirers *)
  | Exclusive
      (** transactional writes and SELECT FOR UPDATE: blocks everyone *)

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

val holders : t -> key:string -> lock list
(** All locks on [key]: one Exclusive, or any number of Shared. *)

val find : t -> key:string -> txn:int -> lock option
(** [txn]'s own grip on [key], if any. *)

val foreign : t -> key:string -> txn:int option -> max_ts:Ts.t -> lock option
(** An Exclusive lock on [key] held by a different transaction at a
    timestamp [<= max_ts] (the visibility rule readers use; Shared locks
    never block plain reads). *)

val foreign_in_span :
  t -> start_key:string -> end_key:string -> txn:int option -> max_ts:Ts.t -> (string * lock) option
(** Any foreign Exclusive lock on a key in [[start_key, end_key)], for scans
    and span refreshes; the key identifies where to park. *)

val foreign_for :
  t -> key:string -> txn:int -> strength:strength -> lock option
(** What blocks [txn] from acquiring at [strength]: an Exclusive request
    conflicts with any foreign holder (including Shared ones it must push
    away before upgrading), a Shared request only with a foreign Exclusive
    holder. *)

val acquire :
  t -> ?pri:Ts.t -> ?anchor:string -> ?strength:strength -> key:string ->
  txn:int -> ts:Ts.t -> unit -> bool
(** Take or ratchet the lock ([strength] defaults to [Exclusive]). Returns
    [true] if the grip was newly created (the caller must [release] it if
    its proposal fails), [false] if the transaction already held the key and
    only the timestamp was ratcheted — requesting [Exclusive] over an
    existing [Shared] grip upgrades it in place. The caller must have
    established there is no conflicting foreign holder ({!foreign_for});
    for an upgrade it must be the sole holder. *)

val release : t -> key:string -> txn:int -> unit
(** Drop [txn]'s grip on [key] if it holds one (other Shared holders keep
    theirs), then wake all waiters on [key]. *)

val wake : t -> key:string -> unit
(** Wake all waiters on [key] without touching the lock (intent resolved). *)

(** {1 Waiters} *)

val park : t -> key:string -> unit Ivar.t
(** Enqueue a fresh waiter on [key] and return its wakeup ivar. *)

val unpark : t -> key:string -> unit Ivar.t -> unit
(** Remove a specific waiter (no-op if a wake already consumed it). *)

val waiters : t -> int
(** Total parked waiters across all keys (queue-depth gauge). *)

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

val absorb : t -> from:t -> unit
(** Merge: copy the right-hand leader's locks into the left table. *)
