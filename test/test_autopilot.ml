(* Tests for the autopilot background queues: load-driven splits, cold
   merges, lease spreading, anti-thrash hysteresis, and survival under
   node failures. *)

module Sim = Crdb_sim.Sim
module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Transport = Crdb_net.Transport
module Ts = Crdb_hlc.Timestamp
module Zoneconfig = Crdb_kv.Zoneconfig
module Cluster = Crdb_kv.Cluster
module Crdb = Crdb_core.Crdb
module Autopilot = Crdb_autopilot.Autopilot
module Obs = Crdb_obs.Obs
module Events = Crdb_obs.Events

let check = Alcotest.check
let regions5 = Latency.table1_regions
let home = "us-east1"
let topo5 = Topology.symmetric ~regions:regions5 ~nodes_per_region:3

let zone_config ?(survival = Zoneconfig.Zone) ?(home = home) () =
  Zoneconfig.derive ~regions:regions5 ~home ~survival
    ~placement:Zoneconfig.Default

(* Aggressive knobs so the queues act within a few simulated seconds. *)
let autopilot_config ?(split_qps = 25.0) ?(cooldown = 1_000_000) () =
  {
    Autopilot.default with
    Autopilot.scan_interval = 200_000;
    split_qps;
    cooldown;
  }

let make_cluster () = Cluster.create ~topology:topo5 ~latency:Latency.table1 ()

(* A settled cluster with ranges over [spans], all placed by one zone config
   homed in [home]. *)
let make ?(survival = Zoneconfig.Zone) spans =
  Crdb.kv_cluster ~regions:regions5 ~home ~survival
    ~ranges:(List.map (fun span -> (span, Cluster.Lag 3_000_000)) spans)
    ()

let one_range ?survival () =
  let cl, rids = make ?survival [ ("a", "z") ] in
  (cl, List.hd rids)

let node_in cl region i =
  Topology.gateway (Cluster.topology cl) ~region ~index:i ()

let get cl ~gateway key =
  let ts = Cluster.now_ts cl gateway in
  let max_ts = Ts.add_wall ts (Cluster.config cl).Cluster.max_offset in
  let rec go ts attempts =
    match
      Cluster.read cl ~inline_bump:true ~gateway ~txn:None ~key ~ts ~max_ts ()
    with
    | Cluster.Read_value { value; _ } -> value
    | Cluster.Read_uncertain { value_ts } when attempts < 10 ->
        go value_ts (attempts + 1)
    | Cluster.Read_uncertain _ -> Alcotest.fail "uncertainty loop"
    | Cluster.Read_redirect -> Alcotest.fail "unexpected redirect"
    | Cluster.Read_wounded e | Cluster.Read_err e ->
        Alcotest.failf "read error: %s" e
  in
  go ts 0

let key i = Printf.sprintf "k%02d" i
let n_keys = 20

let load_keys cl =
  Cluster.bulk_load cl (List.init n_keys (fun i -> (key i, "value-" ^ key i)))

(* Closed-loop read traffic over the loaded keys: each round runs [ops]
   reads to completion while the sim (and the autopilot scans) advance. *)
let traffic cl ~gateway ~ops =
  Cluster.run cl (fun () ->
      for i = 1 to ops do
        ignore (get cl ~gateway (key (i mod n_keys)))
      done)

let test_split_queue_splits_hot_range () =
  let cl, _ = one_range () in
  load_keys cl;
  let ap = Autopilot.start ~config:(autopilot_config ()) cl in
  let gw = node_in cl home 0 in
  for _round = 1 to 5 do
    traffic cl ~gateway:gw ~ops:300;
    Cluster.run_for cl 500_000
  done;
  let stats = Autopilot.stats ap in
  check Alcotest.bool "split queue fired" true (stats.Autopilot.auto_splits >= 1);
  check Alcotest.bool "cluster reshaped into more ranges" true
    (List.length (Cluster.ranges cl) >= 2);
  let events = Obs.events (Cluster.obs cl) in
  check Alcotest.int "every split was the autopilot's (zero manual splits)"
    stats.Autopilot.auto_splits
    (Events.count events Events.Split);
  check Alcotest.int "each decision logged a split_queued event"
    stats.Autopilot.auto_splits
    (Events.count events Events.Split_queued);
  (* Every key still routes and reads after the reshaping. *)
  Cluster.run cl (fun () ->
      for i = 0 to n_keys - 1 do
        check
          Alcotest.(option string)
          ("post-split read " ^ key i)
          (Some ("value-" ^ key i))
          (get cl ~gateway:gw (key i))
      done);
  Autopilot.stop ap

let test_cooldown_suppresses_thrash () =
  (* A cooldown longer than the run: after the first split the queue keeps
     finding the (still hot) range but must skip it, logging the decision. *)
  let config = autopilot_config ~cooldown:600_000_000 () in
  let cl, _ = one_range () in
  load_keys cl;
  let ap = Autopilot.start ~config cl in
  let gw = node_in cl home 0 in
  for _round = 1 to 4 do
    traffic cl ~gateway:gw ~ops:300;
    Cluster.run_for cl 500_000
  done;
  let stats = Autopilot.stats ap in
  check Alcotest.bool "at most one split per cooled-down range" true
    (stats.Autopilot.auto_splits <= 2);
  check Alcotest.bool "due-but-cooled actions were skipped" true
    (stats.Autopilot.skips >= 1);
  check Alcotest.int "skips logged as queue_skipped events"
    stats.Autopilot.skips
    (Events.count (Obs.events (Cluster.obs cl)) Events.Queue_skipped);
  Autopilot.stop ap

let test_merge_queue_subsumes_cold_pair () =
  let cl, rid = one_range () in
  Cluster.bulk_load cl [ ("b", "1"); ("p", "2") ];
  let right = Option.get (Cluster.split_range cl rid ~at:"m") in
  Cluster.run_for cl 3_000_000;
  check Alcotest.int "two ranges before" 2 (List.length (Cluster.ranges cl));
  let ap = Autopilot.start ~config:(autopilot_config ()) cl in
  (* No traffic: both halves are cold and tiny, so the merge queue folds
     them back without any operator call. *)
  Cluster.run_for cl 30_000_000;
  check Alcotest.int "merged back to one range" 1
    (List.length (Cluster.ranges cl));
  check Alcotest.bool "merge queue acted" true
    ((Autopilot.stats ap).Autopilot.auto_merges >= 1);
  check Alcotest.bool "subsumed range gone" false
    (List.mem right (Cluster.ranges cl));
  check Alcotest.bool "merge_queued event logged" true
    (Events.count (Obs.events (Cluster.obs cl)) Events.Merge_queued >= 1);
  Autopilot.stop ap

let test_lease_queue_spreads_load_without_pingpong () =
  (* Two hot ranges led by the same store: the lease queue must move one
     lease to a sibling, then hold steady — repeated ticks on the now
     balanced topology are no-ops. *)
  let config =
    (* Splits and merges off: this test isolates the lease queue (the
       ranges are briefly cold before traffic starts, which would
       otherwise legitimately trigger the merge queue). *)
    {
      (autopilot_config ~split_qps:10_000.0 ()) with
      Autopilot.merge_bytes = 0;
    }
  in
  let cl, rids = make [ ("a", "m"); ("m", "z") ] in
  let r1 = List.hd rids and r2 = List.nth rids 1 in
  Cluster.bulk_load cl [ ("b", "1"); ("c", "2"); ("n", "3"); ("o", "4") ];
  let n0 = node_in cl home 0 in
  Cluster.transfer_lease cl r1 ~target:n0;
  Cluster.transfer_lease cl r2 ~target:n0;
  Cluster.run_for cl 5_000_000;
  check Alcotest.(option int) "r1 starts on n0" (Some n0)
    (Cluster.leaseholder cl r1);
  check Alcotest.(option int) "r2 starts on n0" (Some n0)
    (Cluster.leaseholder cl r2);
  let ap = Autopilot.start ~config cl in
  let gw = node_in cl home 1 in
  let both_spans_traffic () =
    Cluster.run cl (fun () ->
        for _ = 1 to 120 do
          ignore (get cl ~gateway:gw "b");
          ignore (get cl ~gateway:gw "c");
          ignore (get cl ~gateway:gw "n");
          ignore (get cl ~gateway:gw "o")
        done)
  in
  both_spans_traffic ();
  Cluster.run_for cl 5_000_000;
  let stats = Autopilot.stats ap in
  let moves_after_spread = stats.Autopilot.lease_moves in
  check Alcotest.bool "at least one load-driven lease move" true
    (moves_after_spread >= 1);
  check Alcotest.bool "the two leases ended on different stores" true
    (Cluster.leaseholder cl r1 <> Cluster.leaseholder cl r2);
  check Alcotest.int "moves logged as lease_moved events" moves_after_spread
    (Events.count (Obs.events (Cluster.obs cl)) Events.Lease_moved);
  (* More balanced traffic: the queue must not ping-pong leases back. *)
  both_spans_traffic ();
  Cluster.run_for cl 5_000_000;
  both_spans_traffic ();
  Cluster.run_for cl 5_000_000;
  check Alcotest.bool "no lease ping-pong under balanced load" true
    ((Autopilot.stats ap).Autopilot.lease_moves <= moves_after_spread + 1);
  Autopilot.stop ap

let test_idle_cluster_queues_are_noops () =
  (* Repeated ticks over an idle, balanced cluster must decide nothing:
     zero loads mean zero improvement, and mismatched zone configs make the
     pair unmergeable. A second window confirms convergence, not luck. *)
  let cl = make_cluster () in
  let r1 =
    Cluster.add_range cl ~span:("a", "m") ~zone:(zone_config ())
      ~policy:(Cluster.Lag 3_000_000)
  in
  let r2 =
    Cluster.add_range cl ~span:("m", "z")
      ~zone:(zone_config ~home:"europe-west2" ())
      ~policy:(Cluster.Lag 3_000_000)
  in
  Cluster.settle cl;
  Cluster.bulk_load cl [ ("b", "1"); ("n", "2") ];
  let lh1 = Cluster.leaseholder cl r1 and lh2 = Cluster.leaseholder cl r2 in
  let ap = Autopilot.start ~config:(autopilot_config ()) cl in
  Cluster.run_for cl 30_000_000;
  let first = Autopilot.stats ap in
  check Alcotest.int "no splits" 0 first.Autopilot.auto_splits;
  check Alcotest.int "no merges" 0 first.Autopilot.auto_merges;
  check Alcotest.int "no lease moves" 0 first.Autopilot.lease_moves;
  let replica_moves = first.Autopilot.replica_moves in
  Cluster.run_for cl 30_000_000;
  let second = Autopilot.stats ap in
  check Alcotest.int "still no splits" 0 second.Autopilot.auto_splits;
  check Alcotest.int "still no lease moves" 0 second.Autopilot.lease_moves;
  check Alcotest.int "replica placement converged" replica_moves
    second.Autopilot.replica_moves;
  check Alcotest.(option int) "r1 lease unmoved" lh1 (Cluster.leaseholder cl r1);
  check Alcotest.(option int) "r2 lease unmoved" lh2 (Cluster.leaseholder cl r2);
  Autopilot.stop ap

let test_killed_node_does_not_wedge_queues () =
  let cl, rid = one_range ~survival:Zoneconfig.Region () in
  load_keys cl;
  let ap = Autopilot.start ~config:(autopilot_config ()) cl in
  let gw = node_in cl home 0 in
  traffic cl ~gateway:gw ~ops:300;
  (* Kill the current leaseholder mid-flight: its scheduled scans must keep
     firing harmlessly while dead, and the other stores' queues must keep
     operating on whatever leadership emerges. *)
  let lh = Option.get (Cluster.leaseholder cl rid) in
  Transport.kill_node (Cluster.net cl) lh;
  Cluster.run_for cl 20_000_000;
  let gw2 =
    let candidate = node_in cl "us-west1" 0 in
    if candidate = lh then node_in cl "us-west1" 1 else candidate
  in
  Cluster.run cl (fun () ->
      check
        Alcotest.(option string)
        "cluster serves reads after the kill" (Some "value-k03")
        (get cl ~gateway:gw2 (key 3)));
  (* Revive the node; the autopilot resumes scanning it. *)
  Cluster.restart_node cl lh;
  Cluster.run_for cl 10_000_000;
  Cluster.run cl (fun () ->
      check
        Alcotest.(option string)
        "and after the restart" (Some "value-k07")
        (get cl ~gateway:gw (key 7)));
  ignore (Autopilot.stats ap);
  Autopilot.stop ap

let suite =
  [
    Alcotest.test_case "split queue splits hot range" `Quick
      test_split_queue_splits_hot_range;
    Alcotest.test_case "cooldown suppresses thrash" `Quick
      test_cooldown_suppresses_thrash;
    Alcotest.test_case "merge queue subsumes cold pair" `Quick
      test_merge_queue_subsumes_cold_pair;
    Alcotest.test_case "lease queue spreads load without ping-pong" `Quick
      test_lease_queue_spreads_load_without_pingpong;
    Alcotest.test_case "idle cluster queues are no-ops" `Quick
      test_idle_cluster_queues_are_noops;
    Alcotest.test_case "killed node does not wedge queues" `Quick
      test_killed_node_does_not_wedge_queues;
  ]
