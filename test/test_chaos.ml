(* Tests for the chaos subsystem (lib/chaos) and the offline history
   checkers (lib/check): checker unit tests on hand-built histories,
   seeded random-nemesis runs under both survivability goals, the
   deliberately-broken mode the checker must catch, and crash-restart
   regression coverage for kill + revive as a process restart. *)

module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Topology = Crdb_net.Topology
module Transport = Crdb_net.Transport
module Ts = Crdb_hlc.Timestamp
module Zoneconfig = Crdb_kv.Zoneconfig
module Cluster = Crdb_kv.Cluster
module Txn = Crdb_txn.Txn
module History = Crdb_check.History
module Checker = Crdb_check.Checker
module Nemesis = Crdb_chaos.Nemesis
module Workload = Crdb_chaos.Workload
module Harness = Crdb_chaos.Harness
module Autopilot = Crdb_autopilot.Autopilot
module Crdb = Crdb_core.Crdb

let check = Alcotest.check
let regions3 = [ "us-east1"; "us-west1"; "europe-west2" ]
let home = "us-east1"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Checker unit tests (hand-built histories)                           *)

let add h ~client ~at ~dur op outcome =
  let e = History.invoke h ~client ~now:at op in
  History.complete e ~now:(at + dur) outcome

let test_checker_linearizable () =
  let h = History.create () in
  add h ~client:0 ~at:0 ~dur:10 (History.Write { key = "x"; value = "a" }) History.Ok_write;
  add h ~client:1 ~at:20 ~dur:10 (History.Read { key = "x" }) (History.Ok_read (Some "a"));
  add h ~client:0 ~at:40 ~dur:10 (History.Write { key = "x"; value = "b" }) History.Ok_write;
  add h ~client:1 ~at:60 ~dur:10 (History.Read { key = "x" }) (History.Ok_read (Some "b"));
  (* Concurrent read may see either side of the overlapping write. *)
  let w = History.invoke h ~client:0 ~now:80 (History.Write { key = "x"; value = "c" }) in
  add h ~client:1 ~at:82 ~dur:2 (History.Read { key = "x" }) (History.Ok_read (Some "b"));
  History.complete w ~now:95 History.Ok_write;
  check Alcotest.bool "valid" true (Checker.is_valid (Checker.check_linearizable h))

let test_checker_stale_read_rejected () =
  let h = History.create () in
  add h ~client:0 ~at:0 ~dur:10 (History.Write { key = "x"; value = "a" }) History.Ok_write;
  add h ~client:0 ~at:20 ~dur:10 (History.Write { key = "x"; value = "b" }) History.Ok_write;
  (* Invoked strictly after w(b) completed, yet observes the older value. *)
  add h ~client:1 ~at:40 ~dur:10 (History.Read { key = "x" }) (History.Ok_read (Some "a"));
  match Checker.check_linearizable h with
  | Checker.Violation { message; counterexample } ->
      check Alcotest.bool "names the key" true
        (contains ~sub:"x" message);
      check Alcotest.bool "has a counterexample" true (counterexample <> "")
  | Checker.Valid _ | Checker.Inconclusive _ -> Alcotest.fail "expected violation"

let test_checker_info_write_optional () =
  (* An indeterminate write may either have taken effect or not; both
     completions of the history must be accepted. *)
  let observed_case result =
    let h = History.create () in
    add h ~client:0 ~at:0 ~dur:10 (History.Write { key = "x"; value = "a" }) History.Ok_write;
    add h ~client:0 ~at:20 ~dur:10
      (History.Write { key = "x"; value = "b" })
      (History.Info "rpc timeout");
    add h ~client:1 ~at:40 ~dur:10 (History.Read { key = "x" }) (History.Ok_read (Some result));
    Checker.is_valid (Checker.check_linearizable h)
  in
  check Alcotest.bool "info write took effect" true (observed_case "b");
  check Alcotest.bool "info write did not take effect" true (observed_case "a")

let test_checker_failed_write_no_effect () =
  (* A Failed write is guaranteed to have no effect: observing it is a
     violation. *)
  let h = History.create () in
  add h ~client:0 ~at:0 ~dur:10 (History.Write { key = "x"; value = "a" }) History.Ok_write;
  add h ~client:0 ~at:20 ~dur:10
    (History.Write { key = "x"; value = "b" })
    (History.Failed "aborted");
  add h ~client:1 ~at:40 ~dur:10 (History.Read { key = "x" }) (History.Ok_read (Some "b"));
  check Alcotest.bool "violation" false
    (Checker.is_valid (Checker.check_linearizable h))

let test_checker_bank () =
  let h = History.create () in
  add h ~client:0 ~at:0 ~dur:10
    (History.Transfer { src = "a"; dst = "b"; amount = 5 })
    History.Ok_transfer;
  add h ~client:1 ~at:20 ~dur:10 History.Snapshot
    (History.Ok_snapshot [ ("a", 95); ("b", 105) ]);
  check Alcotest.bool "conserved" true
    (Checker.is_valid (Checker.check_bank ~total:200 h));
  add h ~client:1 ~at:40 ~dur:10 History.Snapshot
    (History.Ok_snapshot [ ("a", 95); ("b", 104) ]);
  match Checker.check_bank ~total:200 h with
  | Checker.Violation { counterexample; _ } ->
      check Alcotest.bool "shows the snapshot" true
        (contains ~sub:"snapshot" counterexample)
  | Checker.Valid _ | Checker.Inconclusive _ -> Alcotest.fail "expected violation"

(* ------------------------------------------------------------------ *)
(* Random nemesis end-to-end                                           *)

let harness_setup ~survival ~seed =
  {
    Harness.default with
    Harness.survival;
    cluster_seed = seed;
    nemesis_seed = seed;
    workload = { Workload.default with Workload.seed };
  }

(* The same setup with one deliberately broken mode armed. *)
let with_broken mode s =
  {
    s with
    Harness.cluster_config =
      Some { Cluster.default with Cluster.broken = Some mode };
  }

let run_seeds ~survival seeds =
  List.iter
    (fun seed ->
      let o = Harness.run (harness_setup ~survival ~seed) in
      if not (Harness.passed o) then
        Alcotest.failf "seed %d (%s): registers %s / bank %s\nfaults:\n%s" seed
          (Zoneconfig.survival_to_string survival)
          (Checker.verdict_to_string o.Harness.register_verdict)
          (Checker.verdict_to_string o.Harness.bank_verdict)
          o.Harness.fault_log)
    seeds

let test_random_nemesis_zone () = run_seeds ~survival:Zoneconfig.Zone [ 1; 2 ]
let test_random_nemesis_region () = run_seeds ~survival:Zoneconfig.Region [ 3; 4 ]

let test_nemesis_deterministic () =
  let run () =
    let o = Harness.run (harness_setup ~survival:Zoneconfig.Region ~seed:42) in
    (o.Harness.fault_log, History.to_string o.Harness.result.Workload.registers)
  in
  let log1, hist1 = run () in
  let log2, hist2 = run () in
  check Alcotest.string "identical fault logs" log1 log2;
  check Alcotest.string "identical histories" hist1 hist2;
  check Alcotest.bool "schedule non-trivial" true (String.length log1 > 0)

(* Range-lifecycle faults (splits, merges, rebalances) racing kills,
   partitions and lease transfers. These kinds are opt-in so the seeded
   schedules above stay stable. *)
let lifecycle_setup ~survival ~seed =
  let nemesis =
    {
      Nemesis.default_random with
      Nemesis.kinds = Nemesis.all_kinds @ Nemesis.lifecycle_kinds;
    }
  in
  { (harness_setup ~survival ~seed) with Harness.nemesis = Some nemesis }

let test_lifecycle_nemesis () =
  let logs =
    List.map
      (fun (survival, seed) ->
        let o = Harness.run (lifecycle_setup ~survival ~seed) in
        if not (Harness.passed o) then
          Alcotest.failf "lifecycle seed %d (%s): registers %s / bank %s\nfaults:\n%s"
            seed
            (Zoneconfig.survival_to_string survival)
            (Checker.verdict_to_string o.Harness.register_verdict)
            (Checker.verdict_to_string o.Harness.bank_verdict)
            o.Harness.fault_log;
        o.Harness.fault_log)
      [ (Zoneconfig.Zone, 1); (Zoneconfig.Region, 3) ]
  in
  (* The schedules must actually exercise the lifecycle, not just kills. *)
  let combined = String.concat "\n" logs in
  check Alcotest.bool "a split or merge or rebalance was injected" true
    (contains ~sub:"split_range(" combined
    || contains ~sub:"merge_range(" combined
    || contains ~sub:"rebalance(" combined)

let test_lifecycle_nemesis_deterministic () =
  let run () =
    let o = Harness.run (lifecycle_setup ~survival:Zoneconfig.Region ~seed:3) in
    (o.Harness.fault_log, History.to_string o.Harness.result.Workload.registers)
  in
  let log1, hist1 = run () in
  let log2, hist2 = run () in
  check Alcotest.string "identical fault logs" log1 log2;
  check Alcotest.string "identical histories" hist1 hist2

(* ------------------------------------------------------------------ *)
(* Multi-key serializability under chaos                               *)

(* Transactional clients racing the full fault mix, lifecycle kinds
   included: every transaction spans keys on different ranges while splits,
   merges, rebalances, kills, partitions and clock jumps fire. *)
let serializability_setup ~seed =
  let setup = lifecycle_setup ~survival:Zoneconfig.Region ~seed in
  {
    setup with
    Harness.workload =
      {
        setup.Harness.workload with
        Workload.txn = { Workload.Txn_config.default with Workload.Txn_config.clients = 2 };
      };
  }

let test_serializability_under_chaos () =
  List.iter
    (fun seed ->
      let o = Harness.run (serializability_setup ~seed) in
      if not (Harness.passed o) then
        Alcotest.failf "seed %d: registers %s / bank %s / txns %s\nfaults:\n%s" seed
          (Checker.verdict_to_string o.Harness.register_verdict)
          (Checker.verdict_to_string o.Harness.bank_verdict)
          (Checker.verdict_to_string o.Harness.txn_verdict)
          o.Harness.fault_log;
      check Alcotest.bool "transactions were recorded" true
        (History.num_txns o.Harness.result.Workload.txns > 0))
    [ 42; 101 ]

let test_unsafe_no_refresh_caught () =
  (* Deliberately broken transaction layer: timestamp pushes skip the
     read-span refresh, so transactions commit on stale reads. The
     dependency-graph checker must find a cycle. *)
  let setup = with_broken Cluster.No_refresh (serializability_setup ~seed:303) in
  let o = Harness.run setup in
  match o.Harness.txn_verdict with
  | Checker.Violation { message; counterexample } ->
      check Alcotest.bool "names an anomaly class" true
        (contains ~sub:"G2-item" message || contains ~sub:"lost update" message
        || contains ~sub:"G1c" message || contains ~sub:"G0" message);
      check Alcotest.bool "witness cycle rendered" true
        (contains ~sub:"cycle:" counterexample)
  | Checker.Valid _ | Checker.Inconclusive _ ->
      Alcotest.fail "skipped read refreshes were not caught"

(* Parallel commits racing kills: a conflict-heavy transactional workload
   (all clients on a few hot keys, so wound-wait and staged records collide
   constantly) with node kills and lease transfers. Coordinators die
   between staging and resolution; pushers must finish commit-status
   recovery — serializability clean, zero 10 s conflict timeouts. *)
let recovery_race_setup ~seed =
  let nemesis =
    {
      Nemesis.default_random with
      Nemesis.kinds = [ Nemesis.K_kill_node; Nemesis.K_lease_transfer ];
    }
  in
  {
    (harness_setup ~survival:Zoneconfig.Region ~seed) with
    Harness.nemesis = Some nemesis;
    workload =
      {
        Workload.default with
        Workload.seed;
        txn =
          {
            Workload.Txn_config.default with
            Workload.Txn_config.clients = 6;
            hot_keys = 4;
          };
      };
  }

let test_parallel_commit_recovery_races () =
  List.iter
    (fun seed ->
      let o = Harness.run (recovery_race_setup ~seed) in
      if not (Harness.passed o) then
        Alcotest.failf "seed %d: registers %s / bank %s / txns %s\nfaults:\n%s"
          seed
          (Checker.verdict_to_string o.Harness.register_verdict)
          (Checker.verdict_to_string o.Harness.bank_verdict)
          (Checker.verdict_to_string o.Harness.txn_verdict)
          o.Harness.fault_log;
      check Alcotest.int
        (Printf.sprintf "seed %d: no conflict timeouts" seed)
        0
        (Crdb_obs.Metrics.total
           (Crdb_obs.Obs.metrics (Cluster.obs o.Harness.cluster))
           "kv.conflict_timeouts"))
    [ 701; 702 ]

let test_unsafe_no_recovery_caught () =
  (* Deliberately broken recovery: pushers abort STAGING records without
     probing the declared in-flight writes, tearing down implicitly
     committed transactions whose clients were already acked. The
     serializability checker must object. Swept over seeds because the
     torn commit needs a pusher to actually catch a staged record. *)
  let caught =
    List.exists
      (fun seed ->
        let o =
          Harness.run (with_broken Cluster.No_recovery (recovery_race_setup ~seed))
        in
        not (Harness.passed o))
      [ 701; 702; 703; 704 ]
  in
  check Alcotest.bool "immediate STAGING aborts were caught" true caught

let test_serializability_deterministic () =
  (* Same seeded run twice: byte-identical transaction histories and
     verdicts; and re-checking one recorded history is pure. *)
  let run () =
    let o = Harness.run (serializability_setup ~seed:42) in
    ( o.Harness.fault_log,
      History.txns_to_string o.Harness.result.Workload.txns,
      Checker.verdict_to_string o.Harness.txn_verdict,
      o.Harness.result.Workload.txns )
  in
  let log1, hist1, verdict1, h1 = run () in
  let log2, hist2, verdict2, _ = run () in
  check Alcotest.string "identical fault logs" log1 log2;
  check Alcotest.string "identical txn histories" hist1 hist2;
  check Alcotest.string "identical verdicts" verdict1 verdict2;
  check Alcotest.string "re-check is byte-identical" verdict1
    (Checker.verdict_to_string (Checker.check_serializable h1));
  (* Also on a violating history: same counterexample, byte for byte. *)
  let broken_setup =
    with_broken Cluster.No_refresh (serializability_setup ~seed:303)
  in
  let v1 = (Harness.run broken_setup).Harness.txn_verdict in
  let v2 = (Harness.run broken_setup).Harness.txn_verdict in
  check Alcotest.string "identical counterexamples" (Checker.verdict_to_string v1)
    (Checker.verdict_to_string v2)

let test_dump_roundtrip () =
  (* Dump -> load -> identical checker verdicts, and the reserialization is
     the identity. *)
  let setup = serializability_setup ~seed:42 in
  let o = Harness.run setup in
  let d =
    Crdb_chaos.Dump.of_result
      ~bank_total:(Workload.bank_total setup.Harness.workload)
      o.Harness.result
  in
  let s = Crdb_chaos.Dump.serialize d in
  match Crdb_chaos.Dump.deserialize s with
  | Error msg -> Alcotest.failf "dump did not load back: %s" msg
  | Ok d' ->
      check Alcotest.string "reserialization is the identity" s
        (Crdb_chaos.Dump.serialize d');
      List.iter2
        (fun (label, v) (label', v') ->
          check Alcotest.string "same checker" label label';
          check Alcotest.string
            (label ^ ": same verdict offline")
            (Checker.verdict_to_string v)
            (Checker.verdict_to_string v'))
        (Crdb_chaos.Dump.check d)
        (Crdb_chaos.Dump.check d');
      (* The offline verdicts match the harness's in-process ones. *)
      (match Crdb_chaos.Dump.check d' with
      | [ (_, regs); (_, bank); (_, txns) ] ->
          check Alcotest.string "registers verdict matches"
            (Checker.verdict_to_string o.Harness.register_verdict)
            (Checker.verdict_to_string regs);
          check Alcotest.string "bank verdict matches"
            (Checker.verdict_to_string o.Harness.bank_verdict)
            (Checker.verdict_to_string bank);
          check Alcotest.string "txns verdict matches"
            (Checker.verdict_to_string o.Harness.txn_verdict)
            (Checker.verdict_to_string txns)
      | _ -> Alcotest.fail "unexpected checker list")

let test_unsafe_stale_reads_caught () =
  (* Deliberately broken config: bounded-stale reads recorded as fresh.
     The linearizability checker must produce a counterexample. *)
  let setup =
    with_broken Cluster.Stale_reads
      (harness_setup ~survival:Zoneconfig.Region ~seed:42)
  in
  let o = Harness.run setup in
  match o.Harness.register_verdict with
  | Checker.Violation { counterexample; _ } ->
      check Alcotest.bool "counterexample rendered" true (counterexample <> "")
  | Checker.Valid _ | Checker.Inconclusive _ ->
      Alcotest.fail "stale-as-fresh reads were not caught"

let test_quorum_guard_blocks_majority_kill () =
  (* With the min-healthy invariant on, a SURVIVE ZONE cluster must never
     lose its home region's write availability to kill faults: the guard
     refuses kills that would break a voter quorum. *)
  let o =
    Harness.run
      (harness_setup ~survival:Zoneconfig.Zone ~seed:5)
  in
  check Alcotest.bool "workload finished consistent" true (Harness.passed o);
  (* The guard admits at most one concurrent home-zone kill; region kills
     of the home region are impossible under Zone survival. *)
  check Alcotest.bool "no home region kill in log" false
    (contains ~sub:"kill_region(us-east1)" o.Harness.fault_log)

(* ------------------------------------------------------------------ *)
(* Scripted nemesis: bounded clock skew stays linearizable             *)

let test_clock_skew_script_linearizable () =
  (* Jump several clocks around within max_offset: histories must stay
     linearizable (uncertainty restarts absorb the skew, §6.1). *)
  let script =
    [
      (0, Nemesis.Clock_jump (0, 100_000));
      (1_000_000, Nemesis.Clock_jump (3, -100_000));
      (2_000_000, Nemesis.Clock_jump (6, 80_000));
      (8_000_000, Nemesis.Clock_jump (0, -90_000));
    ]
  in
  let setup =
    {
      (harness_setup ~survival:Zoneconfig.Zone ~seed:9) with
      Harness.nemesis = None;
      script = Some script;
    }
  in
  let o = Harness.run setup in
  check Alcotest.bool "passed" true (Harness.passed o);
  check Alcotest.bool "script ran" true
    (contains ~sub:"clock_jump" o.Harness.fault_log)

(* ------------------------------------------------------------------ *)
(* Crash-restart semantics (kill + revive as process restart)          *)

(* A settled 3-region cluster with one range over [a, z). *)
let make_cluster ?(survival = Zoneconfig.Zone) () =
  let cl, rids =
    Crdb.kv_cluster ~regions:regions3 ~home ~survival
      ~ranges:[ (("a", "z"), Cluster.Lag) ]
      ()
  in
  (cl, List.hd rids)

let test_restart_catches_up () =
  let cl, rid = make_cluster () in
  let mgr = Txn.create_manager cl in
  let lh = Option.get (Cluster.leaseholder cl rid) in
  (* Kill a home-region follower replica (not the leaseholder). *)
  let victim =
    List.find
      (fun n -> n <> lh)
      (List.map fst (Cluster.replica_nodes cl rid))
  in
  Cluster.run cl (fun () ->
      (match Txn.run mgr ~gateway:lh (fun t -> Txn.put t "k" "v1") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "pre-kill write: %a" Txn.pp_error e);
      Transport.kill_node (Cluster.net cl) victim;
      Proc.sleep (Cluster.sim cl) 1_000_000;
      (* Commit while the victim is down: it must catch up on restart. *)
      (match Txn.run mgr ~gateway:lh (fun t -> Txn.put t "k" "v2") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "during-outage write: %a" Txn.pp_error e);
      let write_ts = Cluster.now_ts cl lh in
      Proc.sleep (Cluster.sim cl) 5_000_000;
      check Alcotest.bool "victim still dead" false
        (Transport.is_alive (Cluster.net cl) victim);
      Cluster.restart_node cl victim;
      (* The restart wiped the replica's volatile closed-timestamp state:
         catching up to [write_ts] requires replaying replication. *)
      Proc.sleep (Cluster.sim cl) 10_000_000;
      check Alcotest.bool "revived" true (Transport.is_alive (Cluster.net cl) victim);
      check Alcotest.bool "restarted replica closed past the outage write" true
        (Ts.compare (Cluster.local_closed cl ~at:victim rid) write_ts >= 0);
      (* And it serves a follower read of the value committed while dead. *)
      let v =
        Txn.run_stale_exact mgr ~gateway:victim ~ts:write_ts (fun ro ->
            Txn.ro_get ro "k")
      in
      check Alcotest.(option string) "follower read after restart" (Some "v2") v)

let test_restart_leaseholder_recovers () =
  let cl, rid = make_cluster () in
  let mgr = Txn.create_manager cl in
  let lh = Option.get (Cluster.leaseholder cl rid) in
  Cluster.run cl (fun () ->
      (match Txn.run mgr ~gateway:lh (fun t -> Txn.put t "k" "v1") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %a" Txn.pp_error e);
      Transport.kill_node (Cluster.net cl) lh;
      Proc.sleep (Cluster.sim cl) 8_000_000;
      (* Another home replica won the election. *)
      let lh2 = Cluster.leaseholder cl rid in
      check Alcotest.bool "lease moved" true (lh2 <> None && lh2 <> Some lh);
      Cluster.restart_node cl lh;
      Proc.sleep (Cluster.sim cl) 8_000_000;
      (* The restarted ex-leaseholder rejoined as follower; writes work. *)
      let gw = Option.get (Cluster.leaseholder cl rid) in
      match Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "v2") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "post-restart write: %a" Txn.pp_error e)

(* Regression: a quiesced range whose leaseholder crash-restarts within the
   liveness-oracle grace period must elect a new leader. Without epoch-based
   liveness the quiesced followers keep believing the restarted process is
   still leader (the oracle reports the node live again) and suppress
   elections forever — the range stays leaderless until the horizon. *)
let test_quiesced_leader_restart () =
  let cl, rid = make_cluster () in
  let mgr = Txn.create_manager cl in
  let lh = Option.get (Cluster.leaseholder cl rid) in
  Cluster.run cl (fun () ->
      (match Txn.run mgr ~gateway:lh (fun t -> Txn.put t "k" "v1") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %a" Txn.pp_error e);
      (* Idle long enough for the range to quiesce. *)
      Proc.sleep (Cluster.sim cl) 5_000_000;
      (* Crash and restart faster than the liveness record lapses: the
         followers never see the node reported dead, only its epoch bump. *)
      Transport.kill_node (Cluster.net cl) lh;
      Proc.sleep (Cluster.sim cl) 1_000_000;
      Cluster.restart_node cl lh;
      Proc.sleep (Cluster.sim cl) 15_000_000;
      let lh2 = Cluster.leaseholder cl rid in
      check Alcotest.bool "a leader re-emerged" true (lh2 <> None);
      match Txn.run mgr ~gateway:(Option.get lh2) (fun t -> Txn.put t "k" "v2") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "post-restart write: %a" Txn.pp_error e)

(* ------------------------------------------------------------------ *)
(* kill_zone / revive_region under both survivability goals            *)

let write_ok cl mgr ~gateway =
  Cluster.run cl (fun () ->
      match Txn.run mgr ~gateway (fun t -> Txn.put t "k" "v") with
      | Ok () -> true
      | Error _ -> false)

let test_zone_survival_outages () =
  let cl, rid = make_cluster ~survival:Zoneconfig.Zone () in
  let mgr = Txn.create_manager cl in
  let gw = Topology.gateway (Cluster.topology cl) ~region:"us-west1" () in
  check Alcotest.bool "healthy" true (write_ok cl mgr ~gateway:gw);
  (* Zone outage in the home region: quorum of 3 voters survives. *)
  Transport.kill_zone (Cluster.net cl) ~region:home ~zone:(home ^ "-a");
  Cluster.run_for cl 10_000_000;
  check Alcotest.bool "writes survive zone loss" true (write_ok cl mgr ~gateway:gw);
  (* Whole home region down: zone survival cannot ride this out. *)
  Transport.kill_region (Cluster.net cl) home;
  Cluster.run_for cl 10_000_000;
  check Alcotest.(option string) "no leaseholder" None
    (Option.map (fun _ -> "lh") (Cluster.leaseholder cl rid));
  (* Revive the region with restart semantics: service returns. *)
  Nemesis.apply cl (Nemesis.Revive_region home);
  Cluster.run_for cl 10_000_000;
  check Alcotest.bool "writes back after revive_region" true
    (write_ok cl mgr ~gateway:gw)

let test_region_survival_outages () =
  let cl, rid = make_cluster ~survival:Zoneconfig.Region () in
  let mgr = Txn.create_manager cl in
  let gw = Topology.gateway (Cluster.topology cl) ~region:"us-west1" () in
  check Alcotest.bool "healthy" true (write_ok cl mgr ~gateway:gw);
  (* Losing the whole home region keeps a 3/5 voter quorum. *)
  Transport.kill_region (Cluster.net cl) home;
  Cluster.run_for cl 12_000_000;
  check Alcotest.bool "writes survive region loss" true (write_ok cl mgr ~gateway:gw);
  (match Cluster.leaseholder_region cl rid with
  | Some r -> check Alcotest.bool "lease left the dead region" true (r <> home)
  | None -> Alcotest.fail "no leaseholder after region loss");
  Nemesis.apply cl (Nemesis.Revive_region home);
  Cluster.run_for cl 5_000_000;
  Cluster.rebalance_leases cl;
  Cluster.run_for cl 5_000_000;
  check Alcotest.(option string) "lease back home" (Some home)
    (Cluster.leaseholder_region cl rid)

(* ------------------------------------------------------------------ *)

(* Autopilot seed 7 of check.sh's seed window. Its rebalances once
   proposed a membership change while another was unapplied: r1's addition
   of n0 was built on a peer set that still listed n5, whose removal had
   not applied, so the leader went on listing n5 as a voter after n5's
   replica was gone. Every 100 ms, every peer in each range leader's applied
   configuration must hold a replica. *)
let test_leader_peers_hold_replicas () =
  let seed = 7 in
  let setup =
    {
      Harness.default with
      Harness.cluster_seed = seed;
      nemesis_seed = seed;
      nemesis =
        Some
          {
            Nemesis.default_random with
            Nemesis.kinds = [ Nemesis.K_kill_node; Nemesis.K_lease_transfer ];
          };
      workload =
        {
          Workload.default with
          Workload.seed;
          clients_per_region = 7;
          ops_per_client = 30;
          keys = 48;
          txn =
            { Workload.Txn_config.default with Workload.Txn_config.clients = 2 };
        };
    }
  in
  let first_missing = ref None in
  let rec watch cl () =
    if !first_missing = None then
      List.iter
        (fun rid ->
          List.iter
            (fun (node, _) ->
              if !first_missing = None && Cluster.state_of cl rid node = None
              then first_missing := Some (Sim.now (Cluster.sim cl), rid, node))
            (Cluster.leader_peers cl rid))
        (Cluster.ranges cl);
    Sim.schedule (Cluster.sim cl) ~after:100_000 (watch cl)
  in
  let ap = ref None in
  let o =
    Harness.run
      ~arm:(fun cl ->
        ap := Some (Autopilot.start cl);
        watch cl ())
      setup
  in
  Option.iter Autopilot.stop !ap;
  (match !first_missing with
  | Some (at, rid, node) ->
      Alcotest.failf
        "at %d us the leader of r%d lists n%d, which holds no replica" at rid
        node
  | None -> ());
  check Alcotest.bool "checkers pass" true (Harness.passed o)

let suite =
  [
    Alcotest.test_case "checker: linearizable accepted" `Quick test_checker_linearizable;
    Alcotest.test_case "checker: stale read rejected" `Quick test_checker_stale_read_rejected;
    Alcotest.test_case "checker: info write optional" `Quick test_checker_info_write_optional;
    Alcotest.test_case "checker: failed write has no effect" `Quick
      test_checker_failed_write_no_effect;
    Alcotest.test_case "checker: bank conservation" `Quick test_checker_bank;
    Alcotest.test_case "random nemesis, survive zone" `Slow test_random_nemesis_zone;
    Alcotest.test_case "random nemesis, survive region" `Slow test_random_nemesis_region;
    Alcotest.test_case "nemesis determinism" `Slow test_nemesis_deterministic;
    Alcotest.test_case "lifecycle nemesis, splits and merges race kills" `Slow
      test_lifecycle_nemesis;
    Alcotest.test_case "lifecycle nemesis determinism" `Slow
      test_lifecycle_nemesis_deterministic;
    Alcotest.test_case "serializability under chaos" `Slow
      test_serializability_under_chaos;
    Alcotest.test_case "unsafe no-refresh caught" `Slow test_unsafe_no_refresh_caught;
    Alcotest.test_case "parallel-commit recovery races kills" `Slow
      test_parallel_commit_recovery_races;
    Alcotest.test_case "unsafe no-recovery caught" `Slow
      test_unsafe_no_recovery_caught;
    Alcotest.test_case "serializability determinism" `Slow
      test_serializability_deterministic;
    Alcotest.test_case "history dump round trip" `Slow test_dump_roundtrip;
    Alcotest.test_case "unsafe stale reads caught" `Slow test_unsafe_stale_reads_caught;
    Alcotest.test_case "quorum guard respects survival goal" `Slow
      test_quorum_guard_blocks_majority_kill;
    Alcotest.test_case "bounded clock skew linearizable" `Slow
      test_clock_skew_script_linearizable;
    Alcotest.test_case "restart catches up" `Quick test_restart_catches_up;
    Alcotest.test_case "restarted leaseholder recovers" `Quick
      test_restart_leaseholder_recovers;
    Alcotest.test_case "quiesced leader restart re-elects" `Quick
      test_quiesced_leader_restart;
    Alcotest.test_case "zone survival outages" `Quick test_zone_survival_outages;
    Alcotest.test_case "region survival outages" `Quick test_region_survival_outages;
    Alcotest.test_case "leader peers hold replicas under the autopilot" `Quick
      test_leader_peers_hold_replicas;
  ]
