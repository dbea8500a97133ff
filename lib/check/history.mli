(** Jepsen-style operation histories at simulated-time resolution.

    Each client operation is recorded twice: once at invocation and once at
    completion. An operation whose outcome the client never learned — a
    timeout, an exhausted retry loop, a history that ended first — stays in
    the [Info] state and the checkers must consider both possibilities (it
    may or may not have taken effect). [Failed] is reserved for outcomes the
    system {e guarantees} had no effect. *)

type op =
  | Read of { key : string }
  | Write of { key : string; value : string }
  | Transfer of { src : string; dst : string; amount : int }
  | Snapshot  (** read of all bank accounts in one transaction *)

type outcome =
  | Ok_read of string option
  | Ok_write
  | Ok_transfer
  | Ok_snapshot of (string * int) list  (** account, balance *)
  | Failed of string  (** definitely did not take effect *)
  | Info of string  (** unknown: may or may not have taken effect *)

type entry = {
  id : int;
  client : int;
  op : op;
  invoked : int;  (** simulated microseconds *)
  mutable completed : int;  (** [-1] while pending *)
  mutable outcome : outcome option;  (** [None] while pending *)
}

type t

val create : unit -> t

val entries : t -> entry list
(** In invocation order (ties broken by recording order, which is
    deterministic under the simulator). *)

val invoke : t -> client:int -> now:int -> op -> entry
val complete : entry -> now:int -> outcome -> unit

val entry_to_string : entry -> string
val to_string : t -> string
(** Deterministic rendering: one line per entry, for seed-replay diffing. *)

(** {2 Whole-transaction records}

    For the multi-key serializability checker a history also records whole
    transactions: every physical attempt is one record — its external reads
    with the {e observed values} (the evidence dependencies are inferred
    from), its writes, and how it ended. An attempt whose commit record may
    have been proposed before the client lost track of it is
    [T_indeterminate], carrying the timestamp it would have committed at if
    it did. *)

type txn_op =
  | T_read of { key : string; value : string option }
      (** observed value ([None] = the key's initial nil version) *)
  | T_write of { key : string; value : string }

type txn_status =
  | T_committed of { commit_ts : Crdb_hlc.Timestamp.t }
      (** MVCC commit timestamp: the version order of its writes *)
  | T_aborted  (** definitely had no effect *)
  | T_indeterminate of { commit_ts : Crdb_hlc.Timestamp.t option }
      (** may or may not have committed; if it did, at [commit_ts] *)

type txn = {
  tid : int;  (** unique per recorded attempt *)
  t_client : int;
  t_began : int;  (** simulated microseconds *)
  t_ended : int;
  t_ops : txn_op list;  (** program order *)
  t_status : txn_status;
}

val record_txn :
  t ->
  tid:int ->
  client:int ->
  began:int ->
  ended:int ->
  ops:txn_op list ->
  status:txn_status ->
  unit

val txns : t -> txn list
(** In recording order (deterministic under the simulator). *)

val num_txns : t -> int
val txn_to_string : txn -> string
val txns_to_string : t -> string

(** {2 Serialization}

    A dumped history can be reloaded in a later process and fed to the same
    checkers offline ([crdb_sim chaos --dump-history] / [crdb_sim check]).
    [deserialize] accepts exactly what [serialize] emits; the round trip is
    the identity on both entries and transaction records. *)

val serialize : t -> string
val deserialize : string -> (t, string) result
