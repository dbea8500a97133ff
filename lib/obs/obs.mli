(** The observability context: one {!Trace} recorder, one {!Metrics}
    registry, one structured {!Events} log and one windowed {!Timeseries}
    store, created by the cluster and threaded through the transport, Raft,
    KV, and transaction layers. *)

type t

val create :
  now:(unit -> int) -> ?bucket_width:int -> ?num_buckets:int -> unit -> t
(** [bucket_width]/[num_buckets] configure the {!Timeseries} ring (defaults:
    1 s × 60). *)

val trace : t -> Trace.t
val metrics : t -> Metrics.t
val events : t -> Events.t
val timeseries : t -> Timeseries.t
val enable_tracing : t -> unit

val log_event :
  t ->
  ?node:int ->
  ?range:int ->
  ?txn:int ->
  ?attrs:(string * string) list ->
  Events.kind ->
  unit
(** Append to the structured event log, and mirror the event into the trace
    (under the historical instant-event name, e.g. [kv.split]) when tracing
    is enabled. *)

val null : t
(** Shared default context for components built without one: counters work
    (and are shared globally), tracing is permanently disabled, span
    timestamps read as 0. *)
