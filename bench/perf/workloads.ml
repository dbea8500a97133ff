(* The benchmark workloads. A workload is a list of instances: independent
   clusters, each built through the public API from its own seed and driven
   by closed-loop clients. One instance runs in one child process and
   returns what the benchmark needs from outside the program: op counts,
   the simulated latency of every op, totals from the always-on Metrics
   registry, a digest of everything the simulation produced, and any failed
   correctness gate. Wall time is taken by the [Span]s around each public
   call.

   Why several small instances rather than one large one: simulated tails
   under contention depend on a handful of conflict cascades per cluster,
   so one seed's p99 is far from the next seed's. Merging many independent
   clusters makes a run's numbers a property of the workload rather than of
   one seed. *)

module Crdb = Crdb_core.Crdb
module Cluster = Crdb.Cluster
module Metrics = Crdb.Metrics
module Phase = Crdb.Phase
module Ddl = Crdb.Ddl
module Engine = Crdb.Engine
module Latency = Crdb.Latency
module Sim = Crdb_sim.Sim
module Hist = Crdb_stats.Hist
module Ycsb = Crdb_workload.Ycsb
module Tpcc = Crdb_workload.Tpcc
module Harness = Crdb_chaos.Harness
module Nemesis = Crdb_chaos.Nemesis
module Chaos = Crdb_chaos.Workload
module Checker = Crdb_check.Checker
module History = Crdb_check.History
module Autopilot = Crdb_autopilot.Autopilot

(* Registry totals (summed over scopes) and merged histograms the per-layer
   metrics are derived from. *)
let counter_names =
  [
    "net.msgs_sent"; "net.msgs_dropped"; "net.rpcs"; "net.wan_rpcs";
    "raft.appends_sent"; "raft.elections"; "raft.snapshots_sent";
    "kv.txn_pushes"; "kv.intent_cleanups"; "kv.conflict_timeouts";
    "kv.follower_read_hits"; "kv.follower_read_misses"; "kv.ct_publishes";
    "kv.ranges"; "txn.attempts"; "txn.commits"; "txn.restarts";
    "txn.refreshes"; "chaos.injected";
  ]

(* Every phase but [Epoch_wait], which only the epoch-OCC backend records. *)
let txn_phases = List.filter (fun p -> p <> Phase.Epoch_wait) Phase.all_phases

let hist_names =
  [ "raft.commit_latency"; "txn.commit_wait"; "wan_rtts.txn" ]
  @ List.map (fun p -> "phase.txn." ^ Phase.name p) txn_phases

type outcome = {
  mutable attempted : int;
  mutable failed : int;  (** failed plus indeterminate ops *)
  latency : Hist.t;  (** simulated op latency, µs *)
  mutable sim_us : int;  (** simulated time the runs covered *)
  mutable window_us : int;
      (** the workloads' own measurement windows: a TPC-C run goes on past
          its window until every terminal's last think time ends *)
  counters : (string, int) Hashtbl.t;  (** traced runs only, but the gate's *)
  hists : (string, Hist.t) Hashtbl.t;  (** traced runs only *)
  queue_depth : Hist.t;  (** [Sim.pending], sampled in traced runs *)
  mutable top_heap_words : int;
      (** the process's heap peak when the last run ended, before the
          benchmark's own bookkeeping *)
  mutable autopilot : int * int * int;  (** splits, merges, lease moves *)
  mutable digest_parts : string list;
  mutable problems : string list;  (** failed correctness gates *)
}

let create_outcome () =
  {
    attempted = 0;
    failed = 0;
    latency = Hist.create ();
    sim_us = 0;
    window_us = 0;
    counters = Hashtbl.create 32;
    hists = Hashtbl.create 32;
    queue_depth = Hist.create ();
    top_heap_words = 0;
    autopilot = (0, 0, 0);
    digest_parts = [];
    problems = [];
  }

let counter o name = Option.value (Hashtbl.find_opt o.counters name) ~default:0

let hist o name =
  match Hashtbl.find_opt o.hists name with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.replace o.hists name h;
      h

let problem o msg = o.problems <- msg :: o.problems
let digest_add o part = o.digest_parts <- part :: o.digest_parts

let digest o =
  Digest.to_hex (Digest.string (String.concat "\n" (List.rev o.digest_parts)))

(* Fold a finished cluster's registry into the outcome. Only the traced
   run needs more than the conflict-timeout gate: each [Metrics.total]
   walks the whole registry. *)
let absorb ~traced o cl =
  let m = Crdb.Obs.metrics (Cluster.obs cl) in
  let add name =
    Hashtbl.replace o.counters name (counter o name + Metrics.total m name)
  in
  if traced then begin
    List.iter add counter_names;
    List.iter
      (fun name -> Hist.merge_into ~dst:(hist o name) (Metrics.merged_hist m name))
      hist_names
  end
  else add "kv.conflict_timeouts";
  digest_add o (Metrics.to_json m);
  if counter o "kv.conflict_timeouts" > 0 then
    problem o
      (Printf.sprintf "%d lock waits hit the conflict timeout"
         (counter o "kv.conflict_timeouts"))

(* Samples the event-queue depth every 100 ms of simulated time until the
   returned function is called. The probe only reads [Sim.pending]; events
   keep their relative order, so the simulation and its digest are
   unchanged. *)
let start_probe o cl =
  let sim = Cluster.sim cl in
  let active = ref true in
  let rec tick () =
    if !active then begin
      Hist.add o.queue_depth (Sim.pending sim);
      Sim.schedule sim ~after:100_000 tick
    end
  in
  Sim.schedule sim ~after:100_000 tick;
  fun () -> active := false

(* The measured part of an instance: the "run" span, the traced run's
   probe, and the simulated time the run covered. *)
let run ~traced o cl f =
  let sim = Cluster.sim cl and stop = if traced then start_probe o cl else ignore in
  let start = Sim.now sim in
  let r = Span.with_span "run" (fun () -> Fun.protect f ~finally:stop) in
  o.sim_us <- o.sim_us + (Sim.now sim - start);
  o.top_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words;
  r

let scaled scale n ~min = max min (int_of_float (Float.round (float_of_int n *. scale)))

(* ------------------------------------------------------------------ *)
(* YCSB                                                                *)

let regions3 = [ "us-east1"; "europe-west2"; "asia-northeast1" ]

let setup_ycsb ~regions ~variant ~keyspace =
  let t = Span.with_span "setup.start" (fun () -> Crdb.start ~regions ()) in
  Span.with_span "setup.ddl" (fun () ->
      Crdb.exec t
        (Ddl.N_create_database
           { db = "ycsb"; primary = List.hd regions; regions = List.tl regions });
      Crdb.exec_all t (Ycsb.ddl variant ~db:"ycsb" ~regions));
  let db = Crdb.database t "ycsb" in
  Span.with_span "setup.load" (fun () -> Ycsb.load t db variant ~keyspace);
  (t, db)

let finish_ycsb ~traced o t (r : Ycsb.results) ~expected =
  o.attempted <- o.attempted + r.Ycsb.ops;
  o.failed <- o.failed + r.Ycsb.errors;
  o.window_us <- o.window_us + r.Ycsb.elapsed;
  Hist.merge_into ~dst:o.latency (Ycsb.reads r);
  Hist.merge_into ~dst:o.latency (Ycsb.writes r);
  List.iter
    (fun h -> digest_add o (Hist.to_json h))
    [ r.Ycsb.read_local; r.Ycsb.read_remote; r.Ycsb.write_local; r.Ycsb.write_remote ];
  absorb ~traced o (Crdb.cluster t);
  if r.Ycsb.ops <> expected then
    problem o (Printf.sprintf "%d ops completed, %d expected" r.Ycsb.ops expected);
  if r.Ycsb.errors > 0 then problem o (Printf.sprintf "%d ops failed" r.Ycsb.errors)

(* YCSB-B on REGIONAL BY ROW with locality-optimized search, uniform keys,
   95% of them homed in the client's region. *)
let ycsb_local ~scale ~traced o seed =
  let keyspace = scaled scale 30_000 ~min:300 in
  let ops_per_client = scaled scale 1_000 ~min:10 in
  let t, db = setup_ycsb ~regions:regions3 ~variant:Ycsb.Rbr_default ~keyspace in
  Engine.set_locality_optimized_search db true;
  let r =
    run ~traced o (Crdb.cluster t) (fun () ->
        Ycsb.run t db ~clients_per_region:10 ~ops_per_client ~distribution:`Uniform
          ~locality:0.95 ~workload:Ycsb.B ~keyspace ~seed ())
  in
  finish_ycsb ~traced o t r ~expected:(30 * ops_per_client)

(* YCSB-A with zipf keys on the legacy duplicate-indexes topology (Fig. 5),
   5 regions: every write is a WAN transaction on hot keys. *)
let ycsb_contended ~scale ~traced o seed =
  let keyspace = scaled scale 2_000 ~min:100 in
  let ops_per_client = scaled scale 5 ~min:2 in
  let t, db =
    setup_ycsb ~regions:Latency.table1_regions ~variant:Ycsb.Dup_indexes ~keyspace
  in
  let r =
    run ~traced o (Crdb.cluster t) (fun () ->
        Ycsb.run t db ~clients_per_region:10 ~ops_per_client ~workload:Ycsb.A
          ~keyspace ~seed ())
  in
  finish_ycsb ~traced o t r ~expected:(50 * ops_per_client)

(* ------------------------------------------------------------------ *)
(* TPC-C: the Fig. 6 ten-region point                                  *)

let tpcc_regions =
  [
    "us-east1"; "us-east4"; "us-central1"; "us-west1"; "europe-west1";
    "europe-west2"; "europe-west3"; "asia-east1"; "asia-northeast1";
    "asia-southeast1";
  ]

let tpcc_10r ~scale ~traced o seed =
  let warehouses_per_region = 2 in
  let regions = tpcc_regions in
  let t = Span.with_span "setup.start" (fun () -> Crdb.start ~regions ()) in
  Span.with_span "setup.ddl" (fun () ->
      Crdb.exec_all t (Tpcc.ddl ~db:"tpcc" ~regions ~warehouses_per_region));
  let db = Crdb.database t "tpcc" in
  let customers_per_district = scaled scale 20 ~min:2 in
  Span.with_span "setup.load" (fun () ->
      Tpcc.load t db ~warehouses_per_region ~districts_per_warehouse:10
        ~customers_per_district ~items:100 ());
  let duration = scaled scale 7_500_000 ~min:500_000 in
  let r =
    run ~traced o (Crdb.cluster t) (fun () ->
        Tpcc.run t db ~warehouses_per_region
          ~terminals_per_warehouse:(scaled scale 10 ~min:1)
          ~duration ~districts_per_warehouse:10 ~customers_per_district ~seed ())
  in
  o.attempted <- o.attempted + Hist.count r.Tpcc.all + r.Tpcc.errors;
  o.failed <- o.failed + r.Tpcc.errors;
  o.window_us <- o.window_us + r.Tpcc.elapsed;
  Hist.merge_into ~dst:o.latency r.Tpcc.all;
  List.iter
    (fun h -> digest_add o (Hist.to_json h))
    [ r.Tpcc.new_order; r.Tpcc.payment; r.Tpcc.order_status; r.Tpcc.delivery;
      r.Tpcc.stock_level ];
  digest_add o (Printf.sprintf "tpmC %.1f" (Tpcc.tpmc r));
  absorb ~traced o (Crdb.cluster t);
  if r.Tpcc.errors > 0 then
    problem o (Printf.sprintf "%d transactions failed" r.Tpcc.errors);
  if r.Tpcc.committed_new_orders = 0 then problem o "no new-order transaction committed"

(* ------------------------------------------------------------------ *)
(* Chaos: the autopilot gate's fault mix, checked by all three checkers *)

let chaos_setup ~scale seed =
  {
    Harness.default with
    Harness.survival = Crdb.Zoneconfig.Region;
    cluster_seed = seed;
    nemesis_seed = seed;
    nemesis =
      Some
        { Nemesis.default_random with
          Nemesis.kinds = [ Nemesis.K_kill_node; Nemesis.K_lease_transfer ] };
    workload =
      {
        Chaos.default with
        Chaos.seed;
        clients_per_region = 7;
        ops_per_client = scaled scale 30 ~min:2;
        keys = 48;
        txn = { Chaos.Txn_config.default with Chaos.Txn_config.clients = 2 };
      };
    cluster_config = Some { Cluster.default with Cluster.autopilot = true };
  }

let history_latencies o h =
  List.iter
    (fun (e : History.entry) ->
      if e.History.completed >= 0 then
        Hist.add o.latency (e.History.completed - e.History.invoked))
    (History.entries h)

let recheck o name verdict f =
  let again = Span.with_span name f in
  if Checker.verdict_to_string again <> Checker.verdict_to_string verdict then
    problem o (name ^ ": re-run verdict differs from the harness verdict")

let chaos_seed ~scale ~traced o seed =
  let setup = chaos_setup ~scale seed in
  (* Set-up ends where [Harness.run] hands over to [arm]. *)
  let setup_span = Span.start "setup.start" in
  let run_span = ref None and ap = ref None and stop_probe = ref ignore in
  let armed_at = ref 0 in
  let arm cl =
    Span.finish setup_span;
    armed_at := Sim.now (Cluster.sim cl);
    ap := Some (Autopilot.start cl);
    if traced then stop_probe := start_probe o cl;
    run_span := Some (Span.start "run")
  in
  let out = Harness.run ~arm setup in
  Option.iter Span.finish !run_span;
  !stop_probe ();
  o.top_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words;
  let r = out.Harness.result in
  (* The harness runs the checkers inside [Harness.run]; the traced run
     times them again on the returned histories. *)
  if traced then begin
    recheck o "check.linearizable" out.Harness.register_verdict (fun () ->
        Checker.check_linearizable r.Chaos.registers);
    recheck o "check.bank" out.Harness.bank_verdict (fun () ->
        Checker.check_bank ~total:(Chaos.bank_total setup.Harness.workload) r.Chaos.bank);
    recheck o "check.serializable" out.Harness.txn_verdict (fun () ->
        Checker.check_serializable r.Chaos.txns)
  end;
  let cl = out.Harness.cluster in
  let ran = Sim.now (Cluster.sim cl) - !armed_at in
  o.sim_us <- o.sim_us + ran;
  o.window_us <- o.window_us + ran;
  Option.iter
    (fun ap ->
      Autopilot.stop ap;
      let s = Autopilot.stats ap and sp, mg, lm = o.autopilot in
      o.autopilot <-
        ( sp + s.Autopilot.auto_splits,
          mg + s.Autopilot.auto_merges,
          lm + s.Autopilot.lease_moves ))
    !ap;
  o.attempted <- o.attempted + r.Chaos.ok + r.Chaos.failed + r.Chaos.info;
  o.failed <- o.failed + r.Chaos.failed + r.Chaos.info;
  history_latencies o r.Chaos.registers;
  history_latencies o r.Chaos.bank;
  List.iter
    (fun (name, v) ->
      digest_add o (Printf.sprintf "%s: %s" name (Checker.verdict_to_string v));
      if not (Checker.is_valid v) then
        problem o
          (Printf.sprintf "seed %d: %s checker: %s" seed name
             (Checker.verdict_to_string v)))
    [
      ("linearizable", out.Harness.register_verdict);
      ("bank", out.Harness.bank_verdict);
      ("serializable", out.Harness.txn_verdict);
    ];
  digest_add o out.Harness.fault_log;
  absorb ~traced o cl

(* One instance is the gate's whole window of five seeds: one heavy seed
   dominates its cost (601: 8-12 s of linearizability search, the other
   four under 1 s each), and the window is what a gate run pays. *)
let chaos_check ~scale ~traced o seed =
  for s = seed to seed + scaled scale 5 ~min:1 - 1 do
    chaos_seed ~scale ~traced o s
  done

(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  default_seed : int;
  held_out_seed : int;  (** first seed of a window disjoint from the default *)
  instances : int;  (** seeded [seed .. seed + instances - 1] *)
  in_benchmark_json : bool;
      (** listed in BENCHMARK.json, so run by automated tools on arbitrary
          seeds *)
  run_instance : scale:float -> traced:bool -> outcome -> int -> unit;
}

let instances w ~scale = scaled scale w.instances ~min:1

let run_instance w ~scale ~traced seed =
  let o = create_outcome () in
  Span.with_span "instance" (fun () -> w.run_instance ~scale ~traced o seed);
  o

let all =
  [
    { name = "ycsb-local"; default_seed = 0xBEEF; held_out_seed = 0xBEEF + 100;
      instances = 6; in_benchmark_json = true; run_instance = ycsb_local };
    { name = "ycsb-contended"; default_seed = 0xBEEF; held_out_seed = 0xBEEF + 100;
      instances = 40; in_benchmark_json = true; run_instance = ycsb_contended };
    { name = "tpcc-10r"; default_seed = 0x7CC; held_out_seed = 0x7CC + 100;
      instances = 13; in_benchmark_json = true; run_instance = tpcc_10r };
    (* Chaos seeds 31, 32, 57, 80 and 83 fail a consistency check in this
       configuration, and one seed's checker time ranges from under 0.01 s
       to 12 s, so arbitrary seeds cannot be used here: the workload runs on
       vetted windows only and is left out of BENCHMARK.json. *)
    { name = "chaos-check"; default_seed = 601; held_out_seed = 621;
      instances = 1; in_benchmark_json = false; run_instance = chaos_check };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
