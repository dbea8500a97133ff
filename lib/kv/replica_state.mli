(** The replicated state machine of one replica of a Range.

    Every replica of a Range applies the same committed log entries, in the
    same order, to its own [t]; the Range is correct only if they all reach
    the same state. So nothing here reads a clock, draws a random number,
    routes a request or sees the cluster: {!apply} is a function of the
    state and the command alone, and any value that must be the same on
    every replica (a timestamp, a priority, the proposal time) travels
    inside the command. *)

module Ts = Crdb_hlc.Timestamp

type snap
(** A Raft snapshot: the store, the records and the applied closed
    timestamp. *)

(** One replicated command. *)
type op =
  | Op_put of {
      txn : int;
      ts : Ts.t;
      key : string;
      value : string option;
      pri : Ts.t;  (** the writer's wound-wait priority *)
      anchor : string;
          (** the writer's anchor key; when [key = anchor] the apply also
              registers the transaction record *)
    }
  | Op_resolve of { txn : int; keys : string list; commit : Ts.t option }
  | Op_txn of { txn : int; tkey : string; upd : Txnrec.update }
      (** one transaction-record transition, anchored at [tkey] *)
  | Op_prevent of { txn : int; key : string; ts : Ts.t }
      (** QueryIntent with prevention (parallel-commit recovery) *)
  | Op_split of { right : int; at : string }
      (** split trigger: each replica forks [\[at, end)] into range [right] *)
  | Op_merge of { right : int; cell : snap Crdb_sim.Ivar.t }
      (** merge trigger: the first replica to apply it fills [cell] with
          range [right]'s state if the merge holds; each replica adds it,
          and an empty [cell] makes the trigger a no-op *)

type write_ack = [ `Applied | `Prevented | `Dropped ]
(** What became of a proposal: applied; applied as a write that
    commit-status recovery had barred; or discarded from the log. *)

type cmd = {
  closed : Ts.t;  (** the closed timestamp the entry carries *)
  proposer : int;  (** the node that proposed it *)
  proposed_at : int;
      (** the proposer's simulated time, in micros: the heartbeat a
          registering write stamps on the new transaction record *)
  op : op;
  done_ : write_ack Crdb_sim.Ivar.t;
      (** filled by the proposer alone, with the ack of its own {!apply} or
          with [`Dropped] when its copy is discarded *)
}

type t = private {
  store : Crdb_storage.Mvcc.t;
  locks : Lock_table.t;  (** leaseholder-local, never snapshotted *)
  txns : Txnrec.t;
  mutable applied_closed : Ts.t;
  mutable side_closed : Ts.t;
  mutable pending_side : (int * Ts.t) list;
      (** side-channel closed timestamps waiting for their log index *)
}

val create : unit -> t
(** An empty state: no data, records or closed timestamps. *)

type shared
(** The store effects of one range's recent log entries, kept for the
    replicas that have not applied them yet.

    The sharing contract: a command's store effect is a function of the
    store's map and the command alone, so the first replica to apply an
    entry records the map it started from and the map it produced, and a
    later replica that still holds {e physically} that starting map adopts
    the result with {!Crdb_storage.Mvcc.replace_with} instead of computing
    it again. A replica that holds another map computes, as it would alone,
    and records its own result. What is not a function of the map — the
    closed timestamps, the lock release of a resolve, the transaction
    records — runs on every replica. Adopting is exact: a replica reads the
    same, and returns the same ack, as if it had computed the entry
    itself. *)

val shared : unit -> shared
(** An empty table, one per range. *)

val apply :
  ?shared:shared -> t -> applied:int -> cmd -> [ `Applied | `Prevented ]
(** Apply the committed entry at index [applied], sharing its store effect
    through [shared] when given. [`Prevented] when it is a write that
    commit-status recovery barred. Splits fork nothing here: see
    {!split_off}; a merge trigger adds its cell's store and records, which
    win for the subsumed span (locks stay, as after {!install_snapshot}, as
    does the closed timestamp: the range's target already ratcheted over
    the subsumed one's).
    @raise Invalid_argument when a write meets another transaction's
    intent, which only a diverged replica can see. *)

val forget : shared -> through:int -> unit
(** Drop the effects of the entries at indexes up to [through]: the range
    calls it with the lowest applied index among the replicas its log
    still reaches (live, and not cut off from the leaseholder by a
    partition), so a dead, removed, partitioned or snapshot-seeded replica
    holds none back. An entry once forgotten is not recorded again; a
    replica that applies it later (a revived node, or one whose partition
    healed) computes it, and keeps its own map until a snapshot. *)

val held : shared -> int
(** The number of log indexes whose effects [shared] still holds. *)

val closed : t -> Ts.t
(** The closed timestamp: the applied one or the adopted side-channel one. *)

val add_side : t -> applied:int -> lai:int -> Ts.t -> unit
(** Receive a side-channel closed timestamp that holds once the log has
    applied up to [lai]; adopt it, and any earlier one, once [applied]
    covers it. *)

val write_ts : op -> Ts.t option
(** The write timestamp a replica's clock observes when the entry applies
    (the HLC receive rule), if the command carries one. *)

val take_snapshot : t -> snap
val install_snapshot : t -> snap -> unit

val split_off : shared -> t -> applied:int -> at:string -> t
(** Apply the split trigger at index [applied]: move the store, locks,
    waiters and records at keys [>= at] into a new state, which starts at
    this one's applied closed timestamp. The two stores are shared through
    the range's table as {!apply} shares a write, so the right-hand
    replicas of a range that shared one store share one too. *)

val restart : t -> unit
(** A process restart: drop the locks (waking their waiters) and the
    side-channel closed timestamps; the store and records survive. *)
