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

type cells = { acc : int array; mutable wan : int }
type ctx = Nil | Ctx of cells

let nil = Nil
let make () = Ctx { acc = Array.make num_phases 0; wan = 0 }

let add ctx phase micros =
  match ctx with
  | Nil -> ()
  | Ctx c -> c.acc.(index phase) <- c.acc.(index phase) + micros

let add_wan ?(n = 1) ctx =
  match ctx with Nil -> () | Ctx c -> c.wan <- c.wan + n

let total ctx phase =
  match ctx with Nil -> 0 | Ctx c -> c.acc.(index phase)

let wan_rtts ctx = match ctx with Nil -> 0 | Ctx c -> c.wan

let reset ctx =
  match ctx with
  | Nil -> ()
  | Ctx c ->
      Array.fill c.acc 0 num_phases 0;
      c.wan <- 0

let is_nil ctx = ctx = Nil

(* Metric naming: [phase.<class>.<phase>] histograms (one sample per
   flushed operation, micros spent in that phase — zero-time phases are
   recorded too so per-class sample counts line up across phases) and a
   [wan_rtts.<class>] histogram holding the operation's WAN round-trip
   count. A sink resolves them once; [phases.(index p)] is phase [p]'s. *)

type sink = { phases : Crdb_stats.Hist.t array; wan_hist : Crdb_stats.Hist.t }

let sink metrics ~cls =
  {
    phases =
      Array.of_list
        (List.map
           (fun p -> Metrics.histogram metrics ("phase." ^ cls ^ "." ^ name p))
           all_phases);
    wan_hist = Metrics.histogram metrics ("wan_rtts." ^ cls);
  }

let flush ctx sink =
  match ctx with
  | Nil -> ()
  | Ctx c ->
      Array.iteri (fun i h -> Crdb_stats.Hist.add h c.acc.(i)) sink.phases;
      Crdb_stats.Hist.add sink.wan_hist c.wan

let annotate ctx span =
  match ctx with
  | Nil -> ()
  | Ctx c ->
      List.iter
        (fun p ->
          let v = c.acc.(index p) in
          if v > 0 then
            Trace.annotate span ("phase." ^ name p) (string_of_int v))
        all_phases;
      if c.wan > 0 then Trace.annotate span "wan_rtts" (string_of_int c.wan)
