type phase =
  | Routing
  | Lease_wait
  | Lock_wait
  | Replication
  | Commit_wait
  | Refresh
  | Retry_backoff
  | Staging
  | Recovery
  | Epoch_wait

let all_phases =
  [ Routing; Lease_wait; Lock_wait; Replication; Commit_wait; Refresh;
    Retry_backoff; Staging; Recovery; Epoch_wait ]

let name = function
  | Routing -> "routing"
  | Lease_wait -> "lease_wait"
  | Lock_wait -> "lock_wait"
  | Replication -> "replication"
  | Commit_wait -> "commit_wait"
  | Refresh -> "refresh"
  | Retry_backoff -> "retry_backoff"
  | Staging -> "staging"
  | Recovery -> "recovery"
  | Epoch_wait -> "epoch_wait"

let num_phases = List.length all_phases

let index = function
  | Routing -> 0
  | Lease_wait -> 1
  | Lock_wait -> 2
  | Replication -> 3
  | Commit_wait -> 4
  | Refresh -> 5
  | Retry_backoff -> 6
  | Staging -> 7
  | Recovery -> 8
  | Epoch_wait -> 9

(* Metric naming: [phase.<class>.<phase>] histograms (one sample per
   flushed operation, micros spent in that phase — zero-time phases are
   recorded too so per-class sample counts line up across phases) and a
   [wan_rtts.<class>] histogram holding the operation's WAN round-trip
   count, plus [phase.<class>.unattributed]: end-to-end µs minus the phase
   sum. A sink resolves them once; [phases.(index p)] is phase [p]'s. *)

type sink = {
  phases : Crdb_stats.Hist.t array;
  unattributed : Crdb_stats.Hist.t;
  wan_hist : Crdb_stats.Hist.t;
}

let sink metrics ~cls =
  {
    phases =
      Array.of_list
        (List.map
           (fun p -> Metrics.histogram metrics ("phase." ^ cls ^ "." ^ name p))
           all_phases);
    unattributed = Metrics.histogram metrics ("phase." ^ cls ^ ".unattributed");
    wan_hist = Metrics.histogram metrics ("wan_rtts." ^ cls);
  }

let flush sink acc ~wan ~e2e =
  Array.iteri (fun i h -> Crdb_stats.Hist.add h acc.(i)) sink.phases;
  Crdb_stats.Hist.add sink.unattributed (e2e - Array.fold_left ( + ) 0 acc);
  Crdb_stats.Hist.add sink.wan_hist wan
