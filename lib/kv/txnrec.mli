(** Per-range transaction record table: the replicated commit arbiter.

    One [Txnrec.t] lives on every replica of every Range, holding the
    transaction records anchored in that range's span — a record is keyed to
    the transaction's {e anchor key} (its first write), so it lives exactly
    where that key lives and follows it through splits, merges, snapshots
    and restarts, like the MVCC store itself.

    Records are {e replicated state}: every transition is proposed into the
    range's Raft log (as an [Op_txn] command) and applied here through
    {!apply}, once per range: the replicas that hold the same map share the
    result ({!Replica_state.shared}). Transitions are first-decision-wins —
    once a record is [Committed] or [Aborted] no later update moves it — and
    the apply order of the anchor range's log is the total order that
    decides commit-vs-wound races. Callers (the anchor leaseholder's
    push/commit RPCs) propose an update, await its local apply, then re-read
    the record to learn which decision actually won.

    The [Staging] status implements parallel commits (§3 of the paper, after
    CRDB): the coordinator writes the record as [Staging] with its commit
    timestamp and the keys of still-in-flight intent writes, concurrently
    with those writes' replication. The transaction is {e implicitly
    committed} once the staging record and every declared write have
    replicated; an explicit [Committed] record is written asynchronously
    afterwards. A pusher finding a [Staging] record past its liveness
    threshold runs status recovery: verify every declared key (preventing
    unreplicated ones from ever applying), then finalize the record. *)

module Ts = Crdb_hlc.Timestamp

type status =
  | Pending
  | Staging of { ts : Ts.t; inflight : string list }
      (** parallel commit in progress: commit timestamp plus the keys whose
          intent writes were still unacknowledged when staging began *)
  | Committed of Ts.t  (** commit timestamp, for resolving leftover intents *)
  | Aborted of { reason : string; wound : bool }
      (** [wound] distinguishes a wound-wait abort (restartable, surfaced as
          [Wounded]) from other aborts (abandonment, explicit rollback). *)

type record = {
  tr_id : int;
  tr_key : string;  (** anchor key: the record lives where this key lives *)
  tr_pri : Ts.t;  (** wound-wait priority (first-attempt start timestamp) *)
  tr_status : status;
  tr_hb : int;  (** last coordinator heartbeat, simulated micros *)
}

(** One record transition, carried inside the anchor range's Raft log and
    applied deterministically on every replica. *)
type update =
  | U_register of { pri : Ts.t; hb : int }
      (** create a Pending record (first write / first push); no-op if the
          record already exists *)
  | U_heartbeat of { hb : int }  (** Pending/Staging only; ratchets [tr_hb] *)
  | U_stage of { pri : Ts.t; ts : Ts.t; inflight : string list; hb : int }
      (** Pending→Staging (or refresh an existing Staging); no-op once the
          record is Committed or Aborted *)
  | U_commit of { ts : Ts.t }  (** Pending/Staging→Committed *)
  | U_wound of { reason : string }
      (** Pending→Aborted[wound]; a Staging record can no longer be wounded
          — its fate belongs to status recovery *)
  | U_abandon of { reason : string; if_hb_before : int }
      (** Pending→Aborted iff [tr_hb <= if_hb_before]: the staleness check
          re-runs at apply time so a heartbeat that raced ahead of the
          abandonment in the log wins *)
  | U_recover_abort of { reason : string }
      (** Staging→Aborted[wound]: status recovery proved a declared write
          never replicated (and prevented it from ever applying) *)
  | U_coord_abort of { reason : string }
      (** coordinator rollback: Pending/Staging→Aborted; creates an aborted
          stub if no record exists, so late writes stay rejected *)

type t
(** A table: one mutable reference to an immutable map of immutable
    records. Tables share their maps, as {!Crdb_storage.Mvcc} stores do:
    {!copy}, {!replace_with}, {!split_off} and {!absorb} copy no record,
    and a transition installs a new record in a new map, so it never shows
    in another table. *)

val create : unit -> t

val apply : t -> txn:int -> key:string -> update -> unit
(** Apply one replicated transition for [txn] anchored at [key]. Must be
    called from the state-machine apply path only. *)

val find : t -> txn:int -> record option
val status : t -> txn:int -> status option

val older : Ts.t * int -> Ts.t * int -> bool
(** [older a b]: does priority pair [a] beat (predate) [b]? Lexicographic on
    (timestamp, txn id); lower = older = wins. *)

(** {1 Range lifecycle} — mirrors [Mvcc]/[Lock_table] so records travel with
    their anchor key. *)

val copy : t -> t
(** A table with [t]'s records, sharing its map in O(1) (Raft snapshot
    transfer). *)

val replace_with : t -> t -> unit
(** Snapshot install: give [t] the source's records by sharing its map in
    O(1). *)

val split_off : t -> at:string -> t
(** [split_off t ~at] removes the records anchored at keys [>= at] from [t]
    and returns them as the right-hand table (range split). *)

val absorb : t -> from:t -> unit
(** Merge: add the subsumed right-hand table's records to [t]. *)

val shares : t -> t -> bool
(** True iff the two tables hold physically the same map, and so the same
    records. *)
