(* Tests for topology, latency profiles and the message transport. *)

module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Transport = Crdb_net.Transport

let check = Alcotest.check

let test_topology () =
  let t =
    Topology.symmetric
      ~regions:[ "us-east1"; "us-west1"; "europe-west2" ]
      ~nodes_per_region:3
  in
  check Alcotest.int "nodes" 9 (Topology.num_nodes t);
  check
    Alcotest.(list string)
    "regions"
    [ "us-east1"; "us-west1"; "europe-west2" ]
    (Topology.regions t);
  check Alcotest.int "per region" 3
    (List.length (Topology.nodes_in_region t "us-west1"));
  check
    Alcotest.(list string)
    "zones" [ "us-east1-a"; "us-east1-b"; "us-east1-c" ]
    (Topology.zones_in_region t "us-east1");
  check Alcotest.string "region_of" "us-west1" (Topology.region_of t 4);
  Alcotest.check_raises "unknown node"
    (Invalid_argument "Topology.node: unknown node 99") (fun () ->
      ignore (Topology.node t 99))

let test_table1_matrix () =
  let l = Latency.table1 in
  check Alcotest.int "UE-UW" 63_000 (Latency.rtt l "us-east1" "us-west1");
  check Alcotest.int "symmetric" 63_000 (Latency.rtt l "us-west1" "us-east1");
  check Alcotest.int "EW-AS" 274_000
    (Latency.rtt l "europe-west2" "australia-southeast1");
  check Alcotest.int "intra-region" 600 (Latency.rtt l "us-east1" "us-east1");
  check Alcotest.int "one way" 31_500 (Latency.one_way l "us-east1" "us-west1")

let test_gcp_profile_sane () =
  let l = Latency.gcp in
  check Alcotest.int "26+ regions" 27 (List.length Latency.gcp_region_names);
  List.iter
    (fun r1 ->
      List.iter
        (fun r2 ->
          if not (String.equal r1 r2) then begin
            let rtt = Latency.rtt l r1 r2 in
            check Alcotest.bool
              (Printf.sprintf "%s-%s in [5ms, 350ms]" r1 r2)
              true
              (rtt >= 5_000 && rtt <= 350_000);
            check Alcotest.int "symmetric" rtt (Latency.rtt l r2 r1)
          end)
        Latency.gcp_region_names)
    Latency.gcp_region_names;
  (* Continental sanity: crossing the Pacific beats staying in the US. *)
  check Alcotest.bool "us-us < us-asia" true
    (Latency.rtt l "us-east1" "us-west1"
    < Latency.rtt l "us-east1" "asia-northeast1")

let test_proximity_sort () =
  let l = Latency.table1 in
  let sorted = Latency.sort_by_proximity l "us-east1" Latency.table1_regions in
  check
    Alcotest.(list string)
    "order"
    [
      "us-east1";
      "us-west1";
      "europe-west2";
      "asia-northeast1";
      "australia-southeast1";
    ]
    sorted

let make_transport ?(jitter = 0.0) () =
  let sim = Sim.create () in
  let topology =
    Topology.symmetric ~regions:Latency.table1_regions ~nodes_per_region:3
  in
  let net =
    Transport.create ~jitter ~sim ~topology ~latency:Latency.table1 ()
  in
  (sim, net)

let test_send_delay () =
  let sim, net = make_transport () in
  (* Node 0 is us-east1-a; node 3 is us-west1-a. *)
  let arrival = ref (-1) in
  Transport.send net ~src:0 ~dst:3 (fun () -> arrival := Sim.now sim);
  Sim.run sim;
  check Alcotest.int "cross-region one-way" 31_500 !arrival;
  let arrival2 = ref (-1) in
  Transport.send net ~src:0 ~dst:1 (fun () -> arrival2 := Sim.now sim);
  Sim.run sim;
  check Alcotest.int "cross-zone one-way" (31_500 + 300) !arrival2

let test_rpc_roundtrip () =
  let sim, net = make_transport () in
  let elapsed =
    Proc.run_main sim (fun () ->
        let start = Sim.now sim in
        let reply =
          Transport.rpc net ~src:0 ~dst:3 (fun out -> Crdb_sim.Ivar.fill out "pong")
        in
        let v = Proc.await reply in
        check Alcotest.string "payload" "pong" v;
        Sim.now sim - start)
  in
  check Alcotest.int "full RTT" 63_000 elapsed

let test_kill_drops () =
  let sim, net = make_transport () in
  Transport.kill_node net 3;
  check Alcotest.bool "dead" false (Transport.is_alive net 3);
  check Alcotest.(option int) "dead_since" (Some 0) (Transport.dead_since net 3);
  let r =
    Proc.run_main sim (fun () ->
        let reply =
          Transport.rpc net ~src:0 ~dst:3 (fun out -> Crdb_sim.Ivar.fill out ())
        in
        Proc.await_timeout sim reply ~timeout:1_000_000)
  in
  check Alcotest.(option unit) "no reply" None r;
  Transport.revive_node net 3;
  check Alcotest.bool "revived" true (Transport.is_alive net 3)

let test_kill_in_flight () =
  let sim, net = make_transport () in
  let delivered = ref false in
  Transport.send net ~src:0 ~dst:3 (fun () -> delivered := true);
  (* Kill the destination while the message is in flight. *)
  Sim.schedule sim ~after:1_000 (fun () -> Transport.kill_node net 3);
  Sim.run sim;
  check Alcotest.bool "dropped at delivery" false !delivered

let test_partition () =
  let sim, net = make_transport () in
  Transport.partition_regions net "us-east1" "us-west1";
  let delivered = ref false in
  Transport.send net ~src:0 ~dst:3 (fun () -> delivered := true);
  Sim.run sim;
  check Alcotest.bool "partitioned" false !delivered;
  Transport.heal_partitions net;
  Transport.send net ~src:0 ~dst:3 (fun () -> delivered := true);
  Sim.run sim;
  check Alcotest.bool "healed" true !delivered

let test_heal_one_partition () =
  let sim, net = make_transport () in
  (* Insert one pair twice (dedupe) plus a second distinct pair. *)
  Transport.partition_regions net "us-east1" "us-west1";
  Transport.partition_regions net "us-west1" "us-east1";
  Transport.partition_regions net "us-east1" "europe-west2";
  (* Healing the deduped pair must clear it entirely... *)
  Transport.heal_partition net "us-west1" "us-east1";
  let delivered = ref false in
  Transport.send net ~src:0 ~dst:3 (fun () -> delivered := true);
  Sim.run sim;
  check Alcotest.bool "pair healed despite double insert" true !delivered;
  (* ... while leaving the other pair in force. *)
  let delivered_eu = ref false in
  Transport.send net ~src:0 ~dst:6 (fun () -> delivered_eu := true);
  Sim.run sim;
  check Alcotest.bool "other pair still partitioned" false !delivered_eu;
  Transport.heal_partitions net;
  Transport.send net ~src:0 ~dst:6 (fun () -> delivered_eu := true);
  Sim.run sim;
  check Alcotest.bool "heal-all clears the rest" true !delivered_eu

let test_kill_revive_zone () =
  let _sim, net = make_transport () in
  Transport.kill_zone net ~region:"us-east1" ~zone:"us-east1-a";
  check Alcotest.bool "zone node dead" false (Transport.is_alive net 0);
  check Alcotest.bool "sibling zone alive" true (Transport.is_alive net 1);
  Transport.revive_zone net ~region:"us-east1" ~zone:"us-east1-a";
  check Alcotest.bool "zone node back" true (Transport.is_alive net 0)

let test_kill_region () =
  let _sim, net = make_transport () in
  Transport.kill_region net "europe-west2";
  let dead =
    List.filter
      (fun n -> not (Transport.is_alive net n.Topology.id))
      (Array.to_list (Topology.nodes (Transport.topology net)))
  in
  check Alcotest.int "3 dead" 3 (List.length dead);
  List.iter
    (fun n -> check Alcotest.string "in region" "europe-west2" n.Topology.region)
    dead

let test_jitter_bounded () =
  let sim, net = make_transport ~jitter:0.1 () in
  for _ = 1 to 20 do
    let arrival = ref 0 in
    let start = Sim.now sim in
    Transport.send net ~src:0 ~dst:3 (fun () -> arrival := Sim.now sim - start);
    Sim.run sim;
    check Alcotest.bool "within jitter bound" true
      (!arrival >= 31_500 && !arrival < 34_650 + 1)
  done

(* The delay each message pays, worked out from the localities as a
   reference for the transport's per-pair table. *)
let reference_delay topology latency src dst =
  let a = Topology.node topology src and b = Topology.node topology dst in
  if src = dst then 25
  else if not (String.equal a.Topology.region b.Topology.region) then
    Latency.one_way latency a.Topology.region b.Topology.region
  else if String.equal a.Topology.zone b.Topology.zone then
    Latency.intra_zone_rtt latency / 2
  else Latency.intra_region_rtt latency / 2

let test_delay_table () =
  let check_all name topology latency =
    let net =
      Transport.create ~jitter:0.0 ~sim:(Sim.create ()) ~topology ~latency ()
    in
    let n = Topology.num_nodes topology in
    (* Twice over: the first pass fills the table, the second reads it. *)
    for _ = 1 to 2 do
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          check Alcotest.int
            (Printf.sprintf "%s %d->%d" name src dst)
            (reference_delay topology latency src dst)
            (Transport.delay net src dst)
        done
      done
    done
  in
  (* Two nodes share each zone, so every kind of pair occurs. *)
  let shared_zones regions =
    Topology.create
      (List.concat_map
         (fun r -> [ (r, r ^ "-a"); (r, r ^ "-a"); (r, r ^ "-b") ])
         regions)
  in
  check_all "table1" (shared_zones Latency.table1_regions) Latency.table1;
  check_all "gcp" (shared_zones Latency.gcp_region_names) Latency.gcp

let test_unknown_pair_fails_on_use () =
  (* us-central1 is not in Table 1: building the transport and talking
     within Table-1 regions works; only a message to it fails. *)
  let sim = Sim.create () in
  let topology =
    Topology.symmetric ~regions:[ "us-east1"; "us-west1"; "us-central1" ]
      ~nodes_per_region:3
  in
  let net =
    Transport.create ~jitter:0.0 ~sim ~topology ~latency:Latency.table1 ()
  in
  let delivered = ref 0 in
  Transport.send net ~src:0 ~dst:3 (fun () -> incr delivered);
  Transport.send net ~src:6 ~dst:7 (fun () -> incr delivered);
  Sim.run sim;
  check Alcotest.int "known pairs deliver" 2 !delivered;
  Alcotest.check_raises "unknown pair"
    (Invalid_argument "Latency.table1: unknown region pair us-east1/us-central1")
    (fun () -> Transport.send net ~src:0 ~dst:6 ignore)

let suite =
  [
    Alcotest.test_case "topology" `Quick test_topology;
    Alcotest.test_case "table1 matrix" `Quick test_table1_matrix;
    Alcotest.test_case "gcp profile" `Quick test_gcp_profile_sane;
    Alcotest.test_case "proximity sort" `Quick test_proximity_sort;
    Alcotest.test_case "send delay" `Quick test_send_delay;
    Alcotest.test_case "rpc roundtrip" `Quick test_rpc_roundtrip;
    Alcotest.test_case "kill drops" `Quick test_kill_drops;
    Alcotest.test_case "kill in flight" `Quick test_kill_in_flight;
    Alcotest.test_case "partition" `Quick test_partition;
    Alcotest.test_case "heal one partition" `Quick test_heal_one_partition;
    Alcotest.test_case "kill/revive zone" `Quick test_kill_revive_zone;
    Alcotest.test_case "kill region" `Quick test_kill_region;
    Alcotest.test_case "jitter bounded" `Quick test_jitter_bounded;
    Alcotest.test_case "delay table matches localities" `Quick test_delay_table;
    Alcotest.test_case "unknown region pair fails on use" `Quick
      test_unknown_pair_fails_on_use;
  ]
