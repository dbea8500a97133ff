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
          range [right]'s state if the merge holds; each replica {!absorb}s
          it, and an empty [cell] makes the trigger a no-op *)

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

val apply : t -> applied:int -> cmd -> [ `Applied | `Prevented ]
(** Apply the committed entry at index [applied]. [`Prevented] when it is a
    write that commit-status recovery barred. Splits fork nothing here: see
    {!split_off}; a merge trigger {!absorb}s its cell.
    @raise Invalid_argument when a write meets another transaction's
    intent, which only a diverged replica can see. *)

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

val absorb : t -> snap -> unit
(** A merge: add the subsumed range's store and records, which win for its
    span. Locks stay (they mirror intents the store carries, as after
    {!install_snapshot}), as does the closed timestamp: the range's target
    already ratcheted over the subsumed one's. *)

val split_off : t -> at:string -> t
(** Move the store, locks, waiters and records at keys [>= at] into a new
    state, which starts at this one's applied closed timestamp. *)

val restart : t -> unit
(** A process restart: drop the locks (waking their waiters) and the
    side-channel closed timestamps; the store and records survive. *)
