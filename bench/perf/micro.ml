(* Bechamel microbenchmarks of single-layer entry points: the per-op costs
   the workloads pay in the scheduler, MVCC, the lock table and the
   observability path, isolated from everything around them. *)

module Ts = Crdb_hlc.Timestamp
module Mvcc = Crdb_storage.Mvcc
module Lock_table = Crdb_kv.Lock_table
module Sim = Crdb_sim.Sim
module Hist = Crdb_stats.Hist
module Timeseries = Crdb_obs.Timeseries
module Rng = Crdb_stdx.Rng
open Bechamel

(* Median depth of the event queue in tpcc-10r, sampled by the traced
   run's probe: the scheduler is timed at the depth that workload runs at. *)
let sched_depth = 60_000

let schedule_step () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in
  for _ = 1 to sched_depth do
    Sim.schedule sim ~after:(Rng.int rng 1_000_000) ignore
  done;
  Staged.stage (fun () ->
      Sim.schedule sim ~after:(Rng.int rng 1_000_000) ignore;
      ignore (Sim.step sim))

let mvcc_store () =
  let m = Mvcc.create () in
  for i = 0 to 999 do
    Mvcc.put_version m ~key:(Printf.sprintf "key%04d" i) ~ts:(Ts.of_wall (i + 1))
      ~value:(Some "v")
  done;
  m

let mvcc_read () =
  let m = mvcc_store () and ts = Ts.of_wall 2_000 in
  Staged.stage (fun () ->
      ignore (Mvcc.read m ~key:"key0500" ~ts ~max_ts:ts ~for_txn:None))

(* One key with 1,000 versions, read halfway back in its history. *)
let mvcc_read_deep () =
  let m = Mvcc.create () in
  for i = 1 to 1_000 do
    Mvcc.put_version m ~key:"deep" ~ts:(Ts.of_wall i) ~value:(Some "v")
  done;
  let ts = Ts.of_wall 500 in
  Staged.stage (fun () ->
      ignore (Mvcc.read m ~key:"deep" ~ts ~max_ts:ts ~for_txn:None))

(* An intent laid and aborted, so the store is the same after every run. *)
let mvcc_put () =
  let m = mvcc_store () and ts = Ts.of_wall 2_000 in
  Staged.stage (fun () ->
      ignore (Mvcc.put_intent m ~key:"key0500" ~txn_id:7 ~ts ~value:(Some "w") ());
      Mvcc.resolve_intent m ~key:"key0500" ~txn_id:7 ~commit:None)

let lock_acquire_release () =
  let lt = Lock_table.create () and ts = Ts.of_wall 1 in
  for i = 0 to 999 do
    ignore (Lock_table.acquire lt ~key:(Printf.sprintf "key%04d" i) ~txn:i ~ts ())
  done;
  Staged.stage (fun () ->
      ignore (Lock_table.acquire lt ~key:"hot" ~txn:7 ~ts ());
      Lock_table.release lt ~key:"hot" ~txn:7)

let timeseries_observe () =
  let now = ref 0 in
  let ts = Timeseries.create ~now:(fun () -> !now) () in
  Staged.stage (fun () ->
      now := !now + 1_000;
      Timeseries.observe ts ~range:1 "kv.range.qps" 1)

(* A fresh histogram every 65,536 samples keeps memory bounded; the
   amortized cost of growing its buffer is part of what is measured. *)
let hist_add () =
  let h = ref (Hist.create ()) and n = ref 0 in
  Staged.stage (fun () ->
      incr n;
      if !n land 0xFFFF = 0 then h := Hist.create ();
      Hist.add !h !n)

let tests =
  [
    ("sim.schedule_step_ns", schedule_step);
    ("storage.mvcc_read_ns", mvcc_read);
    ("storage.mvcc_read_deep_ns", mvcc_read_deep);
    ("storage.mvcc_put_ns", mvcc_put);
    ("kv.lock_acquire_release_ns", lock_acquire_release);
    ("obs.timeseries_observe_ns", timeseries_observe);
    ("stats.hist_add_ns", hist_add);
  ]

let names = List.map fst tests

(* Nanoseconds per call, by ordinary least squares over Bechamel's runs. *)
let run ~quota =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  List.map
    (fun (name, make) ->
      let raw = Benchmark.all cfg [ instance ] (Test.make ~name (make ())) in
      let est =
        Hashtbl.fold
          (fun _ r acc ->
            match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> acc)
          (Analyze.all ols instance raw)
          Float.nan
      in
      (name, est))
    tests
