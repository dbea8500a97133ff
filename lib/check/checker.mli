(** Offline consistency checkers over {!History} records.

    Both checkers are pure: they read a completed history and return a
    verdict, so a failing chaos run can be replayed from its seed and the
    verdict diffed byte-for-byte. *)

type verdict =
  | Valid of { ops : int }  (** number of operations the checker examined *)
  | Violation of { message : string; counterexample : string }
  | Inconclusive of string
      (** the history breaks the checker's unique-value assumption — neither
          proof *)

val is_valid : verdict -> bool
val verdict_to_string : verdict -> string

val check_linearizable : History.t -> verdict
(** Per-key linearizability of the register operations (reads and writes) in
    the history: is there an order of the operations, consistent with
    real-time precedence, under which every read returns the latest written
    value? Every write must carry a value unique to its key, so each read
    names the write it observed; a value written twice yields
    [Inconclusive]. The check is then direct (Gibbons & Korach's zones):
    a cluster is a write with the reads of its value, or the reads of the
    initial nil, and its zone runs from its earliest completion [f] to its
    latest invocation [s]. A key is linearizable iff every read returns a
    value that an ok or unknown-outcome write wrote and completes no
    earlier than that write's invocation, no two forward zones ([f < s])
    overlap, and no other zone lies strictly inside a forward one. Writes with unknown
    outcomes ([Info], or still pending) complete at [max_int] and may take
    effect at any point after invocation or never; [Failed] writes and
    reads that returned nothing are ignored. On failure the counterexample
    names the first key that fails, in key order, with at most six
    operations: the offending read and its write, or, for two clusters that
    each precede the other, each one's write and the operations that set its
    [f] and [s]. *)

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
