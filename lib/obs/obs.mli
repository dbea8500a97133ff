(** The observability context: one {!Trace} recorder, one {!Metrics}
    registry, one structured {!Events} log and one windowed {!Timeseries}
    store, created by the cluster and threaded through the transport, Raft,
    KV, and transaction layers. Each fact lives in one store: spans in the
    trace (switch it on with [Trace.enable (Obs.trace obs)]), discrete
    cluster events in the event log, and counts the log cannot give in the
    metrics registry. *)

type t

val create : now:(unit -> int) -> unit -> t
(** The {!Timeseries} ring keeps its defaults: 1 s buckets × 60. *)

val trace : t -> Trace.t
val metrics : t -> Metrics.t
val events : t -> Events.t
val timeseries : t -> Timeseries.t

val null : t
(** Shared default context for components built without one: counters work
    (and are shared globally), tracing is permanently disabled, span
    timestamps read as 0. *)
