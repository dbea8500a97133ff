type t = {
  trace : Trace.t;
  metrics : Metrics.t;
  events : Events.t;
  timeseries : Timeseries.t;
}

let create ~now ?bucket_width ?num_buckets () =
  {
    trace = Trace.create ~now ();
    metrics = Metrics.create ();
    events = Events.create ~now ();
    timeseries = Timeseries.create ~now ?bucket_width ?num_buckets ();
  }

let trace t = t.trace
let metrics t = t.metrics
let events t = t.events
let timeseries t = t.timeseries
let enable_tracing t = Trace.enable t.trace

(* The pre-existing ad-hoc trace event name for each structured kind, kept
   so enabling tracing still yields the familiar instants alongside the
   typed log. *)
let trace_name = function
  | Events.Split -> "kv.split"
  | Events.Merge -> "kv.merge"
  | Events.Rebalance -> "kv.rebalance"
  | Events.Lease_transfer -> "kv.lease_transfer"
  | Events.Lease_acquired -> "kv.lease_acquired"
  | Events.Wound -> "kv.wound"
  | Events.Abandoned_cleanup -> "kv.abandoned_cleanup"
  | Events.Txn_staged -> "kv.txn_staged"
  | Events.Txn_recovered -> "kv.txn_recovered"
  | Events.Fault -> "chaos.inject"
  | Events.Heal -> "chaos.heal"
  | Events.Split_queued -> "autopilot.split_queued"
  | Events.Merge_queued -> "autopilot.merge_queued"
  | Events.Lease_moved -> "autopilot.lease_moved"
  | Events.Queue_skipped -> "autopilot.queue_skipped"

let log_event t ?node ?range ?txn ?(attrs = []) kind =
  Events.log t.events ?node ?range ?txn ~attrs kind;
  Trace.event t.trace ?node ?range ?txn ~attrs (trace_name kind)

(* A shared sink for components constructed without an explicit observability
   context (unit tests, standalone experiments): metrics still accumulate,
   tracing stays off, and all timestamps read as 0. *)
let null = create ~now:(fun () -> 0) ()
