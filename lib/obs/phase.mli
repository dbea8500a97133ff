(** Phase-level latency decomposition and WAN round-trip accounting.

    A {!ctx} rides along with one logical operation (a request, or a whole
    transaction across its retries) and accumulates simulated time into
    named phases, plus a counter of WAN round trips — cross-region message
    exchanges, the unit the paper's §6 latency model prices operations in.

    The context is threaded explicitly through the kv/txn/net layers (an
    ambient/dynamically-scoped context would be unsound here: simulator
    processes interleave at every await point). Call sites default to
    {!nil}, which discards everything at the cost of one branch, mirroring
    how disabled {!Trace} spans behave.

    Phase totals are wall-clock attributions of the operation's time; with
    write pipelining the replication phase overlaps other work, so the sum
    of phases may legitimately exceed the end-to-end latency. *)

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

type ctx

val nil : ctx
(** The discarding context: every operation on it is a no-op. *)

val make : unit -> ctx

val add : ctx -> phase -> int -> unit
(** Accumulate [micros] of simulated time into the phase. *)

val add_wan : ?n:int -> ctx -> unit
(** Count [n] (default 1) WAN round trips against the operation. *)

val total : ctx -> phase -> int
val wan_rtts : ctx -> int
val reset : ctx -> unit
val is_nil : ctx -> bool

type sink
(** One op class's histograms in one registry, resolved once. *)

val sink : Metrics.t -> cls:string -> sink
(** Registers (or finds) the [phase.<cls>.<phase>] histograms, one per
    phase, and the [wan_rtts.<cls>] histogram. *)

val flush : ctx -> sink -> unit
(** Record one sample per phase into the sink's [phase.<cls>.<phase>]
    histograms (including zero-time phases, so per-class counts agree) and
    the WAN round-trip count into [wan_rtts.<cls>]. Call once per completed
    operation; pair with {!reset} to reuse the context. No-op on {!nil}. *)

val annotate : ctx -> Trace.span -> unit
(** Attach the non-zero phase totals and WAN count as attributes on a trace
    span ([phase.<name>], [wan_rtts]). *)
