type t = {
  trace : Trace.t;
  metrics : Metrics.t;
  events : Events.t;
  timeseries : Timeseries.t;
}

let create ~now () =
  {
    trace = Trace.create ~now ();
    metrics = Metrics.create ();
    events = Events.create ~now ();
    timeseries = Timeseries.create ~now ();
  }

let trace t = t.trace
let metrics t = t.metrics
let events t = t.events
let timeseries t = t.timeseries

(* A shared sink for components constructed without an explicit observability
   context (unit tests, standalone experiments): metrics still accumulate,
   tracing stays off, and all timestamps read as 0. *)
let null = create ~now:(fun () -> 0) ()
