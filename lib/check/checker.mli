(** Offline consistency checkers over {!History} records.

    Both checkers are pure: they read a completed history and return a
    verdict, so a failing chaos run can be replayed from its seed and the
    verdict diffed byte-for-byte. *)

type verdict =
  | Valid of { ops : int }  (** number of operations the checker examined *)
  | Violation of { message : string; counterexample : string }
  | Inconclusive of string  (** search budget exhausted — neither proof *)

val is_valid : verdict -> bool
val verdict_to_string : verdict -> string

val check_linearizable : History.t -> verdict
(** Per-key linearizability of the register operations (reads and writes) in
    the history, by Wing–Gong-style search: find an order of the operations,
    consistent with real-time precedence, under which every read returns the
    latest written value. Operations with unknown outcomes ([Info], or still
    pending) are allowed to take effect at any point after invocation or
    never; [Failed] operations are ignored. The search explores at most 10M
    states per key; exceeding that yields [Inconclusive]. On failure
    the counterexample shows the operations no linearization can explain. *)

val check_bank : total:int -> History.t -> verdict
(** The bank-transfer serializability invariant (generalized from
    [test_txn.ml]): every successful [Snapshot] of all accounts must sum to
    [total], the invariant conserved by every [Transfer]. *)

(** {2 Multi-key serializability} *)

type anomaly =
  | G0  (** write cycle: a cycle of ww dependencies alone *)
  | G1a  (** aborted read: a committed read observed an aborted write *)
  | G1c  (** circular information flow: a ww/wr cycle *)
  | G2_item  (** anti-dependency cycle: a cycle needing an rw edge *)
  | Lost_update
      (** rw/ww cycle where the anti-dependent reader also wrote the key it
          read: two read-modify-writes proceeded from the same version *)

val anomaly_to_string : anomaly -> string

val check_serializable : History.t -> verdict
(** Elle-style transactional consistency check over the whole-transaction
    records of the history ({!History.txns}). Write–read, write–write and
    read–write (anti-)dependencies are inferred from unique written values,
    with per-key version order given by MVCC commit timestamps (ties, which
    the simulator never produces, are ordered by visibility: the version a
    later transaction observed was installed last); a cycle in
    the serialization graph is a violation, classified by {!anomaly} (most
    severe class first) and reported with a minimal witness cycle.
    Aborted transactions must never be observed; indeterminate transactions
    are included only when an observed value proves they committed.
    [Inconclusive] when the unique-written-value assumption does not hold
    for the history. Pure and deterministic: the same history yields a
    byte-identical verdict. *)

val check_serializable_report : History.t -> anomaly option * verdict
(** Like {!check_serializable}, also exposing the anomaly classification
    ([None] for valid or inconclusive histories). *)
