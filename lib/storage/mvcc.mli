(** Multi-version concurrency control storage.

    One [Mvcc.t] is the state machine of one replica of one Range: an ordered
    map from keys to version chains plus at most one provisional {e write
    intent} per key. Committed versions are immutable; an intent is the
    uncommitted write of an in-flight transaction and blocks conflicting
    readers and writers until resolved.

    Timestamps follow CRDB semantics: a read at timestamp [ts] observes the
    latest committed version with timestamp [<= ts], unless a committed
    version or intent falls inside the reader's uncertainty window
    [(ts, max_ts]], in which case the reader must ratchet its timestamp
    (§6.1). *)

type ts = Crdb_hlc.Timestamp.t

type intent = {
  txn_id : int;
  ts : ts;
  value : string option;
  pri : ts;
      (** the writer's wound-wait priority timestamp, so a pusher blocked on
          the intent can address the writer's record without a registry *)
  anchor : string;
      (** the writer's anchor key — where its transaction record lives;
          [""] for raw (recordless) writers *)
}

type read_outcome =
  | Value of { value : string option; ts : ts }
      (** Latest committed version at or below the read timestamp; [value =
          None] and [ts = Timestamp.zero] when the key has never been
          written; [value = None] with a non-zero [ts] is a tombstone. *)
  | Uncertain of { value_ts : ts }
      (** A committed version exists inside the uncertainty window; the
          reader must bump its timestamp to [value_ts] and refresh. *)
  | Intent_blocked of intent
      (** A foreign intent at or below [max_ts] blocks this read. *)

type write_outcome =
  | Written
  | Write_blocked of intent  (** A foreign intent occupies the key. *)
  | Write_prevented
      (** Commit-status recovery barred this transaction from ever writing
          the key (see {!prevent}); the write must not take effect and the
          writer's commit must fail. *)

type t

val create : unit -> t

val read : t -> key:string -> ts:ts -> max_ts:ts -> for_txn:int option -> read_outcome
(** [read t ~key ~ts ~max_ts ~for_txn] per the rules above. A transaction
    always observes its own intent regardless of timestamps. [max_ts] is the
    upper bound of the uncertainty interval ([ts] itself for stale reads,
    which have no uncertainty). *)

val put_intent :
  t ->
  ?pri:ts ->
  ?anchor:string ->
  key:string ->
  txn_id:int ->
  ts:ts ->
  value:string option ->
  unit ->
  write_outcome
(** Lay or update (same transaction, e.g. after a timestamp bump) an intent.
    [pri]/[anchor] stamp the writer's wound-wait priority and record
    location onto the intent for pushers to find. *)

val prevent : t -> key:string -> txn_id:int -> ts:ts -> [ `Found | `Prevented ]
(** The QueryIntent-with-prevention step of parallel-commit status recovery
    (applied through the key's Raft log, so it is totally ordered against
    the write it races). [`Found] iff the transaction's intent is present or
    a committed version exists at exactly [ts] (the intent was already
    resolved); otherwise the transaction is barred from ever writing this
    key ({!put_intent} returns [Write_prevented] from now on) and the
    recovery may abort it. *)

val is_prevented : t -> key:string -> txn_id:int -> bool

val resolve_intent : t -> key:string -> txn_id:int -> commit:ts option -> unit
(** [commit = Some ts] promotes the intent to a committed version at [ts];
    [None] discards it. No-op if the key holds no intent of [txn_id]. *)

val intent_on : t -> key:string -> intent option

val latest_ts : t -> key:string -> ts
(** Timestamp of the newest committed version ([Timestamp.zero] if none). *)

val has_committed_after : t -> key:string -> after:ts -> upto:ts -> bool
(** True iff a committed version exists with timestamp in [(after, upto]].
    This is the read-refresh validation check (§5.1, Read Refresh). *)

val span_has_writes_in_window :
  t ->
  start_key:string ->
  end_key:string ->
  after:ts ->
  upto:ts ->
  ignore_txn:int option ->
  bool
(** True iff any key in [\[start_key, end_key)] has a committed version in
    [(after, upto]] or a foreign intent at or below [upto] (span refresh
    validation — catches phantoms and deletions alike). Visits only the
    keys in the span. *)

val scan :
  t ->
  start_key:string ->
  end_key:string ->
  ts:ts ->
  max_ts:ts ->
  for_txn:int option ->
  limit:int option ->
  (string * read_outcome) list
(** Visit keys in [\[start_key, end_key)] in order, and no others. Keys
    whose outcome is [Value {value = None; _}] (never written or deleted)
    are skipped; the scan stops after [limit] live rows if given.
    Uncertain / blocked outcomes are returned in place so the caller can
    react. *)

val live_bytes : t -> int
(** Key + value bytes of the latest live committed version of every key
    (tombstoned and never-written keys contribute nothing). Computed by a
    fold over the record map, so it is trivially carried through
    {!split_off} and {!absorb} — the size feed the split/merge queues
    threshold on ([kv.range.bytes]). *)

val fold_latest : t -> init:'a -> f:('a -> string -> string -> 'a) -> 'a
(** Fold over the latest live committed value of every key (testing aid). *)

val copy : t -> t
(** Deep copy (Raft snapshot transfer). *)

val split_off : t -> key:string -> t
(** [split_off t ~key] removes every record with key [>= key] from [t] and
    returns them as a fresh store. Records are moved, not copied — the
    caller owns the returned store (range split). *)

val absorb : t -> t -> unit
(** [absorb t src] deep-copies every record of [src] into [t], replacing
    any record [t] already holds for the same key (range merge: the
    subsumed right-hand store wins for its own span). *)

val replace_with : t -> t -> unit
(** [replace_with t src] makes [t]'s contents a deep copy of [src]
    (snapshot installation on a follower). *)

val put_version : t -> key:string -> ts:ts -> value:string option -> unit
(** Install a committed version directly, bypassing the intent protocol.
    Used only for administrative bulk loading of benchmark datasets. *)

type 'a versions = Nil | V of { ts : ts; value : 'a; older : 'a versions }
(** A key's committed versions, newest first. A store keeps a
    [string option versions] per key ([None] is a tombstone). *)

val insert_version : ts -> 'a -> 'a versions -> 'a versions
(** [insert_version ts value versions] adds a version to a newest-first
    chain, before the first version whose timestamp is at or below [ts] —
    the place a stable newest-first sort of the versions, with the new one
    first, gives it. *)
