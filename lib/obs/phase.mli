(** Phase-level latency decomposition and WAN round-trip accounting.

    One operation (a request, or a whole transaction across its retries)
    accumulates simulated time into named phases, plus a counter of WAN
    round trips — cross-region message exchanges, the unit the paper's §6
    latency model prices operations in. The cells live in the operation's
    {!Op.t}, whose fork, join and scope rules charge each µs at most once:
    a flushed operation's phases sum to at most its end-to-end time, and
    {!flush} records the rest as [phase.<cls>.unattributed]. *)

type phase =
  | Routing  (** span resolution + gateway→leaseholder request travel *)
  | Lease_wait  (** waiting out leaseholder misses / elections *)
  | Lock_wait  (** parked on a conflicting lock or intent *)
  | Replication  (** Raft proposal → quorum ack (consensus rounds) *)
  | Commit_wait  (** waiting out a future commit timestamp (§6.2.2) *)
  | Refresh  (** read refreshes after a timestamp push (§5.1) *)
  | Retry_backoff  (** sleeping between transaction restart attempts *)
  | Staging
      (** writing the STAGING record of a parallel commit (overlaps the
          final intents' replication, so it prices the commit's single
          effective consensus round) *)
  | Recovery
      (** running parallel-commit status recovery against someone else's
          STAGING record: querying declared in-flight writes and finalizing
          the record *)
  | Epoch_wait
      (** Never recorded: the epoch-OCC backend that charged it is gone.
          Kept only because the perf harness ([bench/perf]) still names it;
          the next change to that harness removes it. *)

val all_phases : phase list
val name : phase -> string
(** The stable wire name used in metric names, annotations, and docs. *)

val index : phase -> int
(** The phase's position in {!all_phases}. *)

val num_phases : int

type sink
(** One op class's histograms in one registry, resolved once. *)

val sink : Metrics.t -> cls:string -> sink
(** Registers (or finds) the [phase.<cls>.<phase>] histograms, one per
    phase, [phase.<cls>.unattributed] and the [wan_rtts.<cls>] histogram. *)

val flush : sink -> int array -> wan:int -> e2e:int -> unit
(** [flush sink acc ~wan ~e2e] records one completed operation: [acc.(index
    p)] µs into each [phase.<cls>.<p>] histogram (zero-time phases too, so
    per-class counts agree), [e2e] (its end-to-end µs) minus the phase sum
    into [phase.<cls>.unattributed], and [wan] into [wan_rtts.<cls>]. *)
