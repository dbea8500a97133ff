(* Tests for the KV layer: zone config derivation, the allocator, and full
   cluster behaviour (replication, leases, closed timestamps, failures). *)

module Sim = Crdb_sim.Sim
module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Transport = Crdb_net.Transport
module Ts = Crdb_hlc.Timestamp
module Raft = Crdb_raft.Raft
module Zoneconfig = Crdb_kv.Zoneconfig
module Allocator = Crdb_kv.Allocator
module Cluster = Crdb_kv.Cluster
module Crdb = Crdb_core.Crdb
module Obs = Crdb_obs.Obs
module Metrics = Crdb_obs.Metrics
open Support

let check = Alcotest.check
let regions5 = Latency.table1_regions
let home = "us-east1"

(* ------------------------------------------------------------------ *)
(* Zone configs (§3.3)                                                 *)

let test_zone_survival_config () =
  let z =
    Zoneconfig.derive ~regions:regions5 ~home ~survival:Zoneconfig.Zone
      ~placement:Zoneconfig.Default
  in
  check Alcotest.int "3 voters" 3 z.Zoneconfig.num_voters;
  check Alcotest.int "3 + (N-1) replicas" 7 z.Zoneconfig.num_replicas;
  check Alcotest.int "non-voter constraint per other region" 4
    (List.length z.Zoneconfig.constraints);
  check
    Alcotest.(list (pair string int))
    "voters in home"
    [ (home, 3) ]
    z.Zoneconfig.voter_constraints;
  check Alcotest.(list string) "lease pref" [ home ] z.Zoneconfig.lease_preferences

let test_region_survival_config () =
  let z =
    Zoneconfig.derive ~regions:regions5 ~home ~survival:Zoneconfig.Region
      ~placement:Zoneconfig.Default
  in
  check Alcotest.int "5 voters" 5 z.Zoneconfig.num_voters;
  check Alcotest.int "max(2+(N-1), 5)" 6 z.Zoneconfig.num_replicas;
  check
    Alcotest.(list (pair string int))
    "2 voters in home"
    [ (home, 2) ]
    z.Zoneconfig.voter_constraints;
  (* 3-region minimum edge case. *)
  let z3 =
    Zoneconfig.derive
      ~regions:[ "a"; "b"; "c" ]
      ~home:"a" ~survival:Zoneconfig.Region ~placement:Zoneconfig.Default
  in
  check Alcotest.int "3 regions: 5 replicas" 5 z3.Zoneconfig.num_replicas

let test_restricted_config () =
  let z =
    Zoneconfig.derive ~regions:regions5 ~home ~survival:Zoneconfig.Zone
      ~placement:Zoneconfig.Restricted
  in
  check Alcotest.int "no non-voters" 3 z.Zoneconfig.num_replicas;
  check Alcotest.int "no constraints outside home" 0
    (List.length z.Zoneconfig.constraints)

let test_invalid_configs () =
  Alcotest.check_raises "region survival needs 3 regions"
    (Invalid_argument
       "Zoneconfig.derive: REGION survivability requires at least 3 regions")
    (fun () ->
      ignore
        (Zoneconfig.derive ~regions:[ "a"; "b" ] ~home:"a"
           ~survival:Zoneconfig.Region ~placement:Zoneconfig.Default));
  Alcotest.check_raises "restricted + region survival"
    (Invalid_argument
       "Zoneconfig.derive: PLACEMENT RESTRICTED cannot be combined with REGION \
        survivability") (fun () ->
      ignore
        (Zoneconfig.derive ~regions:regions5 ~home ~survival:Zoneconfig.Region
           ~placement:Zoneconfig.Restricted))

(* ------------------------------------------------------------------ *)
(* Allocator                                                           *)

let topo5 = Topology.symmetric ~regions:regions5 ~nodes_per_region:3

let test_allocator_zone_survival () =
  let zone =
    Zoneconfig.derive ~regions:regions5 ~home ~survival:Zoneconfig.Zone
      ~placement:Zoneconfig.Default
  in
  let placement =
    Allocator.place ~topology:topo5 ~latency:Latency.table1
      ~load:(fun _ -> 0)
      ~zone
  in
  check Alcotest.bool "satisfies" true
    (Allocator.satisfies ~topology:topo5 ~zone placement);
  let voters = List.filter (fun (_, k) -> k = Raft.Voter) placement in
  let voter_zones =
    List.map (fun (n, _) -> Topology.zone_of topo5 n) voters
    |> List.sort_uniq String.compare
  in
  check Alcotest.int "voters across 3 distinct zones" 3 (List.length voter_zones);
  List.iter
    (fun (n, _) -> check Alcotest.string "voter in home" home (Topology.region_of topo5 n))
    voters;
  let learner_regions =
    List.filter_map
      (fun (n, k) ->
        match k with Raft.Learner -> Some (Topology.region_of topo5 n) | Raft.Voter -> None)
      placement
    |> List.sort_uniq String.compare
  in
  check Alcotest.int "one non-voter per other region" 4 (List.length learner_regions);
  check Alcotest.bool "home has no learner" false (List.mem home learner_regions);
  match
    Allocator.preferred_leaseholder ~topology:topo5 ~live:(fun _ -> true) ~zone
      placement
  with
  | Some n -> check Alcotest.string "lease in home" home (Topology.region_of topo5 n)
  | None -> Alcotest.fail "no preferred leaseholder"

let test_allocator_region_survival () =
  let zone =
    Zoneconfig.derive ~regions:regions5 ~home ~survival:Zoneconfig.Region
      ~placement:Zoneconfig.Default
  in
  let placement =
    Allocator.place ~topology:topo5 ~latency:Latency.table1
      ~load:(fun _ -> 0)
      ~zone
  in
  check Alcotest.bool "satisfies" true
    (Allocator.satisfies ~topology:topo5 ~zone placement);
  let voters = List.filter (fun (_, k) -> k = Raft.Voter) placement in
  let home_voters =
    List.filter (fun (n, _) -> Topology.region_of topo5 n = home) voters
  in
  check Alcotest.int "2 voters in home" 2 (List.length home_voters);
  (* The 3 unpinned voters should go to the regions nearest to home. *)
  let other_voter_regions =
    List.filter_map
      (fun (n, _) ->
        let r = Topology.region_of topo5 n in
        if String.equal r home then None else Some r)
      voters
    |> List.sort_uniq String.compare
  in
  check Alcotest.bool "nearest region us-west1 holds a voter" true
    (List.mem "us-west1" other_voter_regions);
  (* Every region holds at least one replica (stale reads everywhere). *)
  let all_regions =
    List.map (fun (n, _) -> Topology.region_of topo5 n) placement
    |> List.sort_uniq String.compare
  in
  check Alcotest.int "replica in every region" 5 (List.length all_regions)

let test_allocator_balances_load () =
  let counts = Hashtbl.create 16 in
  let load n = match Hashtbl.find_opt counts n with Some c -> c | None -> 0 in
  for i = 1 to 15 do
    (* Homes rotate across regions, as REGIONAL BY ROW partitions do. *)
    let zone =
      Zoneconfig.derive ~regions:regions5
        ~home:(List.nth regions5 (i mod 5))
        ~survival:Zoneconfig.Zone ~placement:Zoneconfig.Default
    in
    let placement =
      Allocator.place ~topology:topo5 ~latency:Latency.table1 ~load ~zone
    in
    List.iter
      (fun (n, _) -> Hashtbl.replace counts n (load n + 1))
      placement
  done;
  (* 15 ranges x 7 replicas over 15 nodes: perfectly balanced = 7 each. *)
  Array.iter
    (fun node ->
      let c = load node.Topology.id in
      check Alcotest.bool "load balanced" true (c >= 5 && c <= 9))
    (Topology.nodes topo5)

let test_allocator_unsatisfiable () =
  let zone =
    {
      Zoneconfig.num_voters = 4;
      num_replicas = 4;
      constraints = [];
      voter_constraints = [ (home, 4) ];
      lease_preferences = [ home ];
    }
  in
  Alcotest.check_raises "too many voters for region"
    (Failure "Allocator: not enough nodes to satisfy configuration") (fun () ->
      ignore
        (Allocator.place ~topology:topo5 ~latency:Latency.table1
           ~load:(fun _ -> 0)
           ~zone))

(* Every placement over a grid, printed in Raft peer order and pinned by
   digest: the Table 1 topology, its first 3 regions (one voter more than
   regions with a home), and the Fig. 6 region sets (4, 10, 26 regions);
   both survival goals, default and restricted placement, every home; and
   uniform, skewed and [Cluster.alter_range]'s hosting-biased loads.
   Hand-written zones on an uneven topology, whose zones hold several
   nodes, add zone reuse, the replica top-up and its fall-back to any free
   node. Each placement must satisfy its zone, hold no node twice and
   score no violation with every node live. *)
let allocator_grid_digest = "a491dffd7469778e05b20bec6e508378"

let test_allocator_grid () =
  let out = Buffer.create 65536 in
  let uniform _ = 0 and skewed id = id * 7919 mod 13 in
  let place ~topology ~latency ~zone (name, load) =
    let p = Allocator.place ~topology ~latency ~load ~zone in
    Printf.bprintf out "%s:" name;
    List.iter
      (fun (id, kind) ->
        Printf.bprintf out " %d%s" id
          (match kind with Raft.Voter -> "v" | Raft.Learner -> "l"))
      p;
    Buffer.add_char out '\n';
    check Alcotest.bool ("satisfies " ^ name) true
      (Allocator.satisfies ~topology ~zone p);
    check Alcotest.int ("no node twice " ^ name) (List.length p)
      (List.length (List.sort_uniq compare (List.map fst p)));
    let violations, _, _ =
      Allocator.placement_score ~topology ~live:(fun _ -> true) ~load ~zone p
    in
    check Alcotest.int ("no violation " ^ name) 0 violations;
    p
  in
  let gcp n = List.filteri (fun i _ -> i < n) Latency.gcp_region_names in
  List.iter
    (fun (regions, latency) ->
      let topology = Topology.symmetric ~regions ~nodes_per_region:3 in
      let place = place ~topology ~latency in
      List.iter
        (fun home ->
          List.iter
            (fun (survival, placement) ->
              let derive survival placement =
                Zoneconfig.derive ~regions ~home ~survival ~placement
              in
              (* The replicas a range homed here holds under the other
                 survival goal, as [alter_range] sees them. *)
              let hosted =
                let other =
                  Zoneconfig.(if survival = Zone then Region else Zone)
                in
                place
                  ~zone:(derive other Zoneconfig.Default)
                  (Printf.sprintf "%d %s hosted" (List.length regions) home, uniform)
              in
              let hosting id =
                skewed id - if List.mem_assoc id hosted then 1_000_000 else 0
              in
              List.iter
                (fun (name, load) ->
                  ignore
                    (place ~zone:(derive survival placement)
                       ( Printf.sprintf "%d %s %s %s %s" (List.length regions)
                           home
                           (Zoneconfig.survival_to_string survival)
                           (if placement = Zoneconfig.Default then "default"
                            else "restricted")
                           name,
                         load )
                      : Allocator.placement))
                [ ("uniform", uniform); ("skewed", skewed); ("hosting", hosting) ])
            Zoneconfig.[ (Zone, Default); (Zone, Restricted); (Region, Default) ])
        regions)
    [
      (regions5, Latency.table1);
      (List.filteri (fun i _ -> i < 3) regions5, Latency.table1);
      ([ "us-east1"; "us-east4"; "us-central1"; "us-west1" ], Latency.gcp);
      ( [
          "us-east1"; "us-east4"; "us-central1"; "us-west1"; "europe-west1";
          "europe-west2"; "europe-west3"; "asia-east1"; "asia-northeast1";
          "asia-southeast1";
        ],
        Latency.gcp );
      (gcp 26, Latency.gcp);
    ];
  let a, b, c = ("us-east1", "us-west1", "europe-west2") in
  let uneven nodes =
    Topology.create (List.map (fun (r, z) -> (r, r ^ "-" ^ z)) nodes)
  in
  List.iteri
    (fun i (topology, sizes) ->
      List.iter
        (fun (num_voters, num_replicas) ->
          let zone =
            {
              Zoneconfig.num_voters;
              num_replicas;
              constraints = [];
              voter_constraints = [ (a, 1) ];
              lease_preferences = [ a ];
            }
          in
          List.iter
            (fun (name, load) ->
              ignore
                (place ~topology ~latency:Latency.table1 ~zone
                   ( Printf.sprintf "uneven%d %d/%d %s" i num_voters
                       num_replicas name,
                     load )
                  : Allocator.placement))
            [ ("uniform", uniform); ("skewed", skewed) ])
        sizes)
    [
      ( uneven
          [ (a, "a"); (b, "a"); (b, "a"); (b, "b"); (b, "b"); (c, "a");
            (c, "a"); (c, "a"); (c, "b") ],
        [ (1, 6); (1, 9); (3, 6); (3, 9) ] );
      ( uneven [ (a, "a"); (b, "a"); (b, "a"); (c, "a"); (c, "b"); (c, "c") ],
        [ (1, 6); (3, 6) ] );
    ];
  check Alcotest.string "placements digest" allocator_grid_digest
    (Digest.to_hex (Digest.string (Buffer.contents out)))

(* ------------------------------------------------------------------ *)
(* Cluster                                                             *)

let zone_config ?(survival = Zoneconfig.Zone) ?(placement = Zoneconfig.Default)
    ?(home = home) () =
  Zoneconfig.derive ~regions:regions5 ~home ~survival ~placement

let make_cluster () =
  Cluster.create ~topology:topo5 ~latency:Latency.table1 ()

(* A settled cluster with one range over [a, z), homed in [home]. *)
let one_range ?(survival = Zoneconfig.Zone) ?(policy = Cluster.Lag)
    () =
  let cl, rids =
    Crdb.kv_cluster ~regions:regions5 ~home ~survival
      ~ranges:[ (("a", "z"), policy) ]
      ()
  in
  (cl, List.hd rids)

let test_cluster_basic_write_read () =
  let cl, rid = one_range () in
  (match Cluster.leaseholder_region cl rid with
  | Some r -> check Alcotest.string "leaseholder in home" home r
  | None -> Alcotest.fail "no leaseholder");
  let gateway = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let _ = put cl ~gateway ~txn:1 "k1" "v1" in
      check Alcotest.(option string) "read back" (Some "v1") (get cl ~gateway "k1");
      check Alcotest.(option string) "missing key" None (get cl ~gateway "nope"))

let test_cluster_local_latency () =
  let cl, _ = one_range () in
  let sim = Cluster.sim cl in
  let local_gw = node_in cl home 0 in
  let remote_gw = node_in cl "australia-southeast1" 0 in
  Cluster.run cl (fun () ->
      let t0 = Sim.now sim in
      ignore (put cl ~gateway:local_gw ~txn:1 "k" "v");
      let local_elapsed = Sim.now sim - t0 in
      check Alcotest.bool
        (Printf.sprintf "local write < 10ms (was %dus)" local_elapsed)
        true (local_elapsed < 10_000);
      let t1 = Sim.now sim in
      let _ = get cl ~gateway:remote_gw "k" in
      let remote_elapsed = Sim.now sim - t1 in
      (* Remote consistent read ~ 1 RTT to the leaseholder (198ms). *)
      check Alcotest.bool
        (Printf.sprintf "remote read ~RTT (was %dus)" remote_elapsed)
        true
        (remote_elapsed > 180_000 && remote_elapsed < 260_000))

let test_follower_stale_read () =
  let cl, _ = one_range () in
  let gw = node_in cl home 0 in
  let remote = node_in cl "asia-northeast1" 1 in
  Cluster.run cl (fun () ->
      ignore (put cl ~gateway:gw ~txn:1 "k" "v");
      (* Wait out the close lag so the write's timestamp is closed. *)
      Crdb_sim.Proc.sleep (Cluster.sim cl) 4_000_000;
      let stale_ts = Ts.of_wall (Sim.now (Cluster.sim cl) - 3_500_000) in
      let t0 = Sim.now (Cluster.sim cl) in
      (match
         Cluster.read_follower cl ~at:remote ~txn:None ~key:"k" ~ts:stale_ts
           ~max_ts:stale_ts ()
       with
      | `Ok value ->
          check Alcotest.(option string) "stale value visible" (Some "v") value
      | `Uncertain _ | `Redirect | `Wounded _ | `Err _ ->
          Alcotest.fail "stale read not served");
      let elapsed = Sim.now (Cluster.sim cl) - t0 in
      check Alcotest.bool
        (Printf.sprintf "follower read local <3ms (was %dus)" elapsed)
        true (elapsed < 3_000);
      (* A present-time read is NOT closed on a Lag range: redirect. *)
      let now = Cluster.now_ts cl remote in
      match
        Cluster.read_follower cl ~at:remote ~txn:None ~key:"k" ~ts:now
          ~max_ts:now ()
      with
      | `Redirect -> ()
      | `Ok _ | `Uncertain _ | `Wounded _ | `Err _ ->
          Alcotest.fail "fresh read should redirect on Lag range")

let test_global_range_future_writes () =
  let cl, rid = one_range ~policy:Cluster.Lead () in
  let gw = node_in cl home 0 in
  let remote = node_in cl "europe-west2" 2 in
  let lead = Cluster.closed_lead_duration cl rid in
  check Alcotest.bool "lead > max_offset" true
    (lead > (Cluster.config cl).Cluster.max_offset);
  Cluster.run cl (fun () ->
      let before = Sim.now (Cluster.sim cl) in
      let commit_ts = put cl ~gateway:gw ~txn:1 "k" "v" in
      (* The write landed in the future. *)
      check Alcotest.bool "future timestamp" true
        (Ts.wall commit_ts > before + (lead / 2));
      (* After the lead passes, any replica serves a present-time read
         locally. *)
      Crdb_sim.Proc.sleep (Cluster.sim cl) (lead + 200_000);
      let ts = Cluster.now_ts cl remote in
      let max_ts = Ts.add_wall ts (Cluster.config cl).Cluster.max_offset in
      let t0 = Sim.now (Cluster.sim cl) in
      (match
         Cluster.read_follower cl ~at:remote ~txn:None ~key:"k" ~ts ~max_ts ()
       with
      | `Ok value ->
          check Alcotest.(option string) "present-time local read" (Some "v") value
      | `Uncertain _ -> Alcotest.fail "uncertain"
      | `Redirect -> Alcotest.fail "redirect"
      | `Wounded e | `Err e ->
          Alcotest.failf "err %s" e);
      let elapsed = Sim.now (Cluster.sim cl) - t0 in
      check Alcotest.bool
        (Printf.sprintf "global read local <3ms (was %dus)" elapsed)
        true (elapsed < 3_000))

let test_global_read_uncertainty () =
  let cl, _ = one_range ~policy:Cluster.Lead () in
  let gw = node_in cl home 0 in
  let remote = node_in cl "us-west1" 0 in
  Cluster.run cl (fun () ->
      let offset = (Cluster.config cl).Cluster.max_offset in
      let commit_ts = put cl ~gateway:gw ~txn:1 "k" "v" in
      (* Wait until present time sits just below the write's future
         timestamp: the write then falls inside the reader's uncertainty
         window and must force a restart (Fig. 2, read 4). *)
      let target = Ts.wall commit_ts - (offset / 2) in
      Crdb_sim.Proc.sleep (Cluster.sim cl) (target - Sim.now (Cluster.sim cl));
      let read_ts = Ts.of_wall (Sim.now (Cluster.sim cl)) in
      let max_ts = Ts.add_wall read_ts offset in
      match
        Cluster.read_follower cl ~at:remote ~txn:None ~key:"k" ~ts:read_ts
          ~max_ts ()
      with
      | `Uncertain value_ts ->
          check Alcotest.bool "uncertain at write ts" true
            (Ts.equal value_ts commit_ts)
      | `Ok _ | `Redirect | `Wounded _ | `Err _ ->
          Alcotest.fail "expected uncertainty restart")

let test_tscache_pushes_writer () =
  let cl, _ = one_range () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      ignore (put cl ~gateway:gw ~txn:1 "k" "v1");
      (* Read at a deliberately future timestamp. *)
      let read_ts = Ts.add_wall (Cluster.now_ts cl gw) 1_000_000 in
      (match Cluster.read cl ~gateway:gw ~txn:None ~key:"k" ~ts:read_ts ~max_ts:read_ts () with
      | `Ok _ -> ()
      | _ -> Alcotest.fail "read failed");
      (* A subsequent write must land above the read. *)
      let w_ts = Cluster.now_ts cl gw in
      match
        Cluster.write cl ~gateway:gw ~txn:2 ~key:"k" ~value:(Some "v2") ~ts:w_ts ()
      with
      | `Ok pushed ->
          check Alcotest.bool "write pushed above read" true Ts.(pushed > read_ts);
          Cluster.resolve cl ~gateway:gw ~txn:2 ~commit:(Some pushed)
            ~keys:[ "k" ] ()
      | `Wounded e | `Err e ->
          Alcotest.failf "write failed: %s" e)

let test_write_write_conflict_queues () =
  let cl, _ = one_range () in
  let gw = node_in cl home 0 in
  let sim = Cluster.sim cl in
  Cluster.run cl (fun () ->
      (* Txn 1 writes but delays its commit; txn 2's write must wait. *)
      let ts1 = Cluster.now_ts cl gw in
      let w1 =
        match
          Cluster.write cl ~gateway:gw ~txn:1 ~key:"k" ~value:(Some "a") ~ts:ts1 ()
        with
        | `Ok ts -> ts
        | `Wounded e | `Err e ->
            Alcotest.failf "w1: %s" e
      in
      let t2_done = ref (-1) in
      Crdb_sim.Proc.spawn sim (fun () ->
          let ts2 = Cluster.now_ts cl gw in
          match
            Cluster.write cl ~gateway:gw ~txn:2 ~key:"k" ~value:(Some "b") ~ts:ts2 ()
          with
          | `Ok ts ->
              t2_done := Sim.now sim;
              Cluster.resolve cl ~gateway:gw ~txn:2 ~commit:(Some ts)
                ~keys:[ "k" ] ()
          | `Wounded e | `Err e ->
              Alcotest.failf "w2: %s" e);
      (* Hold the lock for 500ms. *)
      Crdb_sim.Proc.sleep sim 500_000;
      check Alcotest.int "txn2 still blocked" (-1) !t2_done;
      let commit_at = Sim.now sim in
      Cluster.resolve cl ~gateway:gw ~txn:1 ~commit:(Some w1) ~keys:[ "k" ] ();
      Crdb_sim.Proc.sleep sim 500_000;
      check Alcotest.bool "txn2 proceeded after resolve" true
        (!t2_done >= commit_at);
      check Alcotest.(option string) "latest wins" (Some "b") (get cl ~gateway:gw "k"))

let test_refresh () =
  let cl, _ = one_range () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let t0 = Cluster.now_ts cl gw in
      ignore (put cl ~gateway:gw ~txn:1 "k" "v1");
      let t1 = Cluster.now_ts cl gw in
      check Alcotest.bool "refresh fails over write" false
        (Cluster.refresh cl ~gateway:gw ~txn:9 ~key:"k" ~from_ts:t0 ~to_ts:t1 ());
      check Alcotest.bool "refresh ok on untouched window" true
        (Cluster.refresh cl ~gateway:gw ~txn:9 ~key:"k" ~from_ts:t1
           ~to_ts:(Ts.add_wall t1 1000) ()))

let test_zone_survival_loses_region () =
  let cl, rid = one_range () in
  let gw = node_in cl "us-west1" 0 in
  Cluster.run cl (fun () -> ignore (put cl ~gateway:gw ~txn:1 "k" "v"));
  (* Let the write's timestamp get closed and propagate before the outage. *)
  Cluster.run_for cl 6_000_000;
  let kill_time = Sim.now (Cluster.sim cl) in
  Transport.kill_region (Cluster.net cl) home;
  Cluster.run_for cl 15_000_000;
  check Alcotest.(option int) "no leaseholder" None (Cluster.leaseholder cl rid);
  (* But stale follower reads still work from surviving regions, at
     timestamps the dead leaseholder had already closed. *)
  Cluster.run cl (fun () ->
      let stale_ts = Ts.of_wall (kill_time - 4_000_000) in
      match
        Cluster.read_follower cl ~at:gw ~txn:None ~key:"k" ~ts:stale_ts
          ~max_ts:stale_ts ()
      with
      | `Ok value ->
          check Alcotest.(option string) "stale read survives" (Some "v") value
      | `Uncertain _ | `Redirect | `Wounded _ | `Err _ ->
          Alcotest.fail "stale read should survive region loss")

let test_region_survival_survives_region () =
  let cl, rid = one_range ~survival:Zoneconfig.Region () in
  let gw = node_in cl "us-west1" 0 in
  Cluster.run cl (fun () -> ignore (put cl ~gateway:gw ~txn:1 "k" "before"));
  Transport.kill_region (Cluster.net cl) home;
  (* Liveness expiry + election. *)
  Cluster.run_for cl 20_000_000;
  (match Cluster.leaseholder_region cl rid with
  | Some r -> check Alcotest.bool "leaseholder moved out of home" true (r <> home)
  | None -> Alcotest.fail "range must stay available");
  Cluster.run cl (fun () ->
      ignore (put cl ~gateway:gw ~txn:2 "k" "after");
      check Alcotest.(option string) "writes still served" (Some "after")
        (get cl ~gateway:gw "k"));
  (* Heal and rebalance: lease returns home. *)
  Transport.revive_region (Cluster.net cl) home;
  Cluster.run_for cl 2_000_000;
  Cluster.rebalance_leases cl;
  Cluster.run_for cl 5_000_000;
  match Cluster.leaseholder_region cl rid with
  | Some r -> check Alcotest.string "lease back home" home r
  | None -> Alcotest.fail "no leaseholder after heal"

let test_zone_failure_tolerated () =
  let cl, rid = one_range () in
  let lh = Option.get (Cluster.leaseholder cl rid) in
  let zone = Topology.zone_of (Cluster.topology cl) lh in
  Transport.kill_zone (Cluster.net cl) ~region:home ~zone;
  Cluster.run_for cl 20_000_000;
  (match Cluster.leaseholder_region cl rid with
  | Some r -> check Alcotest.string "still home region" home r
  | None -> Alcotest.fail "zone survival must keep the range available");
  let gw = node_in cl home 1 in
  Cluster.run cl (fun () ->
      ignore (put cl ~gateway:gw ~txn:5 "k" "v");
      check Alcotest.(option string) "read after zone loss" (Some "v")
        (get cl ~gateway:gw "k"))

let test_negotiate () =
  let cl, _ = one_range () in
  let gw = node_in cl home 0 in
  let remote = node_in cl "europe-west2" 0 in
  Cluster.run cl (fun () ->
      ignore (put cl ~gateway:gw ~txn:1 "k" "v");
      Crdb_sim.Proc.sleep (Cluster.sim cl) 4_000_000;
      let safe = Cluster.negotiate cl ~at:remote ~keys:[ "k" ] in
      let now = Sim.now (Cluster.sim cl) in
      check Alcotest.bool "negotiated ts in the past but recent" true
        (Ts.wall safe > now - 4_500_000 && Ts.wall safe < now);
      (* A pending intent below the closed timestamp lowers the result. *)
      let ts = Cluster.now_ts cl gw in
      (match Cluster.write cl ~gateway:gw ~txn:7 ~key:"k" ~value:(Some "x") ~ts () with
      | `Ok _ -> ()
      | `Wounded e | `Err e ->
          Alcotest.failf "write: %s" e);
      Crdb_sim.Proc.sleep (Cluster.sim cl) 4_000_000;
      let safe2 = Cluster.negotiate cl ~at:remote ~keys:[ "k" ] in
      check Alcotest.bool "intent caps negotiation" true Ts.(safe2 < ts);
      Cluster.resolve cl ~gateway:gw ~txn:7 ~commit:None ~keys:[ "k" ] ())

(* Four committed keys in one Lag range, split at "k3" so a follower scan
   over [k, l) crosses a range boundary. *)
let follower_scan_fixture () =
  let cl, rid = one_range () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      List.iteri
        (fun i k -> ignore (put cl ~gateway:gw ~txn:(i + 1) k ("v" ^ k)))
        [ "k1"; "k2"; "k3"; "k4" ]);
  ignore (Cluster.split_range cl rid ~at:"k3" : Cluster.range_id option);
  (cl, gw)

let follower_scan cl ~at ?(end_key = "l") ?limit ts =
  Cluster.scan_follower cl ~at ~txn:None ~start_key:"k" ~end_key ~ts
    ~max_ts:ts ~limit ()

(* A timestamp the Lag range has closed on every replica, above the
   fixture's writes once the close lag has passed. *)
let closed_ts cl = Ts.of_wall (Sim.now (Cluster.sim cl) - 3_500_000)

let scan_rows = function
  | `Ok rows -> rows
  | `Uncertain _ -> Alcotest.fail "unexpected uncertainty"
  | `Redirect -> Alcotest.fail "unexpected redirect"
  | `Wounded e | `Err e -> Alcotest.failf "scan: %s" e

let expect_redirect what = function
  | `Redirect -> ()
  | `Ok _ | `Uncertain _ | `Wounded _ | `Err _ ->
      Alcotest.failf "%s: expected a redirect" what

let all_rows = [ ("k1", "vk1"); ("k2", "vk2"); ("k3", "vk3"); ("k4", "vk4") ]
let rows_t = Alcotest.(list (pair string string))

let fr_counter cl node name =
  Metrics.value (Metrics.counter (Obs.metrics (Cluster.obs cl)) ~node name)

(* The gateway's own replica serves locally; a gateway without one asks the
   nearest replica over the network. Both count as follower-read hits of the
   gateway, one per fragment. *)
let test_follower_scan_local_vs_remote () =
  let cl, _ = follower_scan_fixture () in
  let region = "europe-west2" in
  let holders =
    List.map fst (Cluster.replica_nodes cl (Cluster.range_of_key cl "k1"))
  in
  let in_region =
    List.map
      (fun n -> n.Topology.id)
      (Topology.nodes_in_region (Cluster.topology cl) region)
  in
  let local = List.find (fun n -> List.mem n holders) in_region in
  let remote = List.find (fun n -> not (List.mem n holders)) in_region in
  let sim = Cluster.sim cl in
  Cluster.run cl (fun () ->
      Crdb_sim.Proc.sleep sim 4_000_000;
      let ts = closed_ts cl in
      let timed at =
        let hits = fr_counter cl at "kv.follower_read_hits" in
        let t0 = Sim.now sim in
        check rows_t "all rows" all_rows (scan_rows (follower_scan cl ~at ts));
        check Alcotest.int "one hit per fragment" (hits + 2)
          (fr_counter cl at "kv.follower_read_hits");
        Sim.now sim - t0
      in
      let local_elapsed = timed local in
      let remote_elapsed = timed remote in
      check Alcotest.bool
        (Printf.sprintf "local scan is storage-only (was %dus)" local_elapsed)
        true (local_elapsed < 1_000);
      check Alcotest.bool
        (Printf.sprintf "remote scan pays a round trip (%dus vs %dus)"
           remote_elapsed local_elapsed)
        true
        (remote_elapsed > local_elapsed))

(* A fragment above the replica's closed timestamp, or blocked by a foreign
   intent, redirects the whole scan to the leaseholder path. *)
let test_follower_scan_redirects () =
  let cl, gw = follower_scan_fixture () in
  let at = node_in cl "us-west1" 1 in
  let sim = Cluster.sim cl in
  Cluster.run cl (fun () ->
      Crdb_sim.Proc.sleep sim 4_000_000;
      let misses = fr_counter cl at "kv.follower_read_misses" in
      expect_redirect "present time"
        (follower_scan cl ~at (Cluster.now_ts cl at));
      check Alcotest.int "miss counted" (misses + 1)
        (fr_counter cl at "kv.follower_read_misses");
      (match
         Cluster.write cl ~gateway:gw ~txn:9 ~key:"k4" ~value:(Some "x")
           ~ts:(Cluster.now_ts cl gw) ()
       with
      | `Ok _ -> ()
      | `Wounded e | `Err e ->
          Alcotest.failf "write: %s" e);
      Crdb_sim.Proc.sleep sim 5_000_000;
      let ts = closed_ts cl in
      expect_redirect "intent in the right fragment" (follower_scan cl ~at ts);
      check rows_t "left fragment alone serves"
        [ ("k1", "vk1"); ("k2", "vk2") ]
        (scan_rows (follower_scan cl ~at ~end_key:"k3" ts));
      Cluster.resolve cl ~gateway:gw ~txn:9 ~commit:None ~keys:[ "k4" ] ())

(* Rows from both sides of the split come back in key order, and a limit
   counts down across the fragments. *)
let test_follower_scan_stitches_split () =
  let cl, _ = follower_scan_fixture () in
  let at = node_in cl "asia-northeast1" 0 in
  Cluster.run cl (fun () ->
      Crdb_sim.Proc.sleep (Cluster.sim cl) 4_000_000;
      let ts = closed_ts cl in
      check rows_t "stitched in order" all_rows
        (scan_rows (follower_scan cl ~at ts));
      check rows_t "limit spans fragments"
        [ ("k1", "vk1"); ("k2", "vk2"); ("k3", "vk3") ]
        (scan_rows (follower_scan cl ~at ~limit:3 ts)))

let test_bulk_load_visible () =
  let cl, _ = one_range () in
  Cluster.bulk_load cl [ ("k1", "v1"); ("k2", "v2") ];
  let gw = node_in cl home 2 in
  Cluster.run cl (fun () ->
      check Alcotest.(option string) "loaded" (Some "v1") (get cl ~gateway:gw "k1");
      check Alcotest.(option string) "loaded" (Some "v2") (get cl ~gateway:gw "k2"))

let replica_stores cl rid =
  List.map
    (fun (node, _) -> (Option.get (Cluster.state_of cl rid node)).store)
    (Cluster.replica_nodes cl rid)

let latest_values store =
  List.rev
    (Crdb_storage.Mvcc.fold_latest store ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

(* Replicas that differ before a load each keep their own state: one holds
   an intent on a loaded key, one an extra key, and the rest, which still
   share one map, end up sharing the loaded one. *)
let test_bulk_load_keeps_replica_state () =
  let module Mvcc = Crdb_storage.Mvcc in
  let cl, rid = one_range () in
  match replica_stores cl rid with
  | held :: extra :: rest when rest <> [] ->
      (match
         Mvcc.put_intent held ~key:"k1" ~txn_id:7 ~ts:(Ts.of_wall 5)
           ~value:(Some "x") ()
       with
      | Mvcc.Written -> ()
      | Mvcc.Write_blocked _ | Mvcc.Write_prevented -> Alcotest.fail "blocked");
      Mvcc.put_version extra ~key:"k0" ~ts:(Ts.of_wall 3) ~value:(Some "e");
      Cluster.bulk_load cl ~ts:(Ts.of_wall 10) [ ("k1", "v1"); ("k2", "v2") ];
      let loaded = [ ("k1", "v1"); ("k2", "v2") ] in
      let kvs = Alcotest.(list (pair string string)) in
      check kvs "intent holder" loaded (latest_values held);
      check Alcotest.(option int) "intent kept" (Some 7)
        (Option.map (fun i -> i.Mvcc.txn_id) (Mvcc.intent_on held ~key:"k1"));
      check kvs "extra key kept" (("k0", "e") :: loaded) (latest_values extra);
      check Alcotest.bool "no intent copied" true (Mvcc.intent_on extra ~key:"k1" = None);
      List.iter
        (fun store ->
          check kvs "loaded" loaded (latest_values store);
          check Alcotest.bool "no intent" true (Mvcc.intent_on store ~key:"k1" = None);
          check Alcotest.bool "shares one map" true
            (Mvcc.shares_map store (List.hd rest)))
        rest;
      check Alcotest.bool "differing stores not shared" false
        (Mvcc.shares_map held (List.hd rest) || Mvcc.shares_map extra (List.hd rest))
  | _ -> Alcotest.fail "expected at least three replicas"

(* A load stores its keys once, however many replicas the range has. *)
let test_bulk_load_memory_follows_keys () =
  let cl, rid = one_range () in
  Cluster.bulk_load cl
    (List.init 2_000 (fun i -> (Printf.sprintf "k%05d" i, string_of_int i)));
  let stores = replica_stores cl rid in
  let one = Obj.reachable_words (Obj.repr (List.hd stores))
  and all = Obj.reachable_words (Obj.repr stores) in
  check Alcotest.bool "several replicas" true (List.length stores >= 3);
  if float_of_int all >= 1.2 *. float_of_int one then
    Alcotest.failf "%d replicas' stores hold %d words, one holds %d"
      (List.length stores) all one

let test_multi_range_routing () =
  let cl = make_cluster () in
  let r1 =
    Cluster.add_range cl ~span:("a", "m") ~zone:(zone_config ())
      ~policy:Cluster.Lag
  in
  let r2 =
    Cluster.add_range cl ~span:("m", "z")
      ~zone:(zone_config ~home:"europe-west2" ())
      ~policy:Cluster.Lag
  in
  Cluster.settle cl;
  check Alcotest.int "routes to r1" r1 (Cluster.range_of_key cl "apple");
  check Alcotest.int "routes to r2" r2 (Cluster.range_of_key cl "orange");
  (match Cluster.leaseholder_region cl r2 with
  | Some r -> check Alcotest.string "r2 homed in europe" "europe-west2" r
  | None -> Alcotest.fail "no leaseholder for r2");
  Alcotest.check_raises "unrouted key" Not_found (fun () ->
      ignore (Cluster.range_of_key cl "zz"));
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Cluster.add_range: overlapping span") (fun () ->
      ignore
        (Cluster.add_range cl ~span:("b", "c") ~zone:(zone_config ())
           ~policy:Cluster.Lag))

(* [resolve] awaits only the range holding its first key: it returns once
   that range has resolved its intent, while a range homed across the WAN
   resolves its own in the background shortly after. *)
let test_resolve_awaits_anchor_range () =
  let cl = make_cluster () in
  let near =
    Cluster.add_range cl ~span:("a", "m") ~zone:(zone_config ())
      ~policy:Cluster.Lag
  in
  let far =
    Cluster.add_range cl ~span:("m", "z")
      ~zone:(zone_config ~home:"europe-west2" ())
      ~policy:Cluster.Lag
  in
  Cluster.settle cl;
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  let has_intent rid key =
    let lh = Option.get (Cluster.leaseholder cl rid) in
    Crdb_storage.Mvcc.intent_on (Option.get (Cluster.state_of cl rid lh)).store
      ~key
    <> None
  in
  Cluster.run cl (fun () ->
      let write key =
        let ts = Cluster.now_ts cl gw in
        match Cluster.write cl ~gateway:gw ~txn:1 ~key ~value:(Some key) ~ts () with
        | `Ok ts -> ts
        | `Wounded e | `Err e -> Alcotest.failf "write %s: %s" key e
      in
      let commit = Ts.max (write "apple") (write "orange") in
      check Alcotest.bool "both intents laid" true
        (has_intent near "apple" && has_intent far "orange");
      Cluster.resolve cl ~gateway:gw ~txn:1 ~commit:(Some commit)
        ~keys:[ "apple"; "orange" ] ();
      check Alcotest.bool "anchor range resolved on return" false
        (has_intent near "apple");
      check Alcotest.bool "far range not yet resolved" true
        (has_intent far "orange");
      Crdb_sim.Proc.sleep sim 1_000_000;
      check Alcotest.bool "far range resolved shortly after" false
        (has_intent far "orange");
      check Alcotest.(option string) "far value committed" (Some "orange")
        (get cl ~gateway:gw "orange"))

(* ------------------------------------------------------------------ *)
(* The replica state machine                                           *)

module Replica_state = Crdb_kv.Replica_state
module Txnrec = Crdb_kv.Txnrec
module Mvcc = Crdb_storage.Mvcc

let sm_keys = [| "a"; "b"; "c"; "d" |]
let sm_txns = [ 1; 2; 3; 4 ]
let sm_anchor txn = sm_keys.(txn mod Array.length sm_keys)

(* The span a merge trigger absorbs: one transaction per key, anchored
   there. *)
let sm_right = [| ("x", 5); ("y", 6) |]

let pp_update = function
  | Txnrec.U_register { hb; _ } -> Printf.sprintf "register hb=%d" hb
  | U_heartbeat { hb } -> Printf.sprintf "heartbeat hb=%d" hb
  | U_stage { hb; _ } -> Printf.sprintf "stage hb=%d" hb
  | U_commit _ -> "commit"
  | U_wound _ -> "wound"
  | U_abandon { if_hb_before; _ } ->
      Printf.sprintf "abandon if_hb_before=%d" if_hb_before
  | U_recover_abort _ -> "recover_abort"
  | U_coord_abort _ -> "coord_abort"

let pp_op = function
  | Replica_state.Op_put { txn; key; anchor; _ } ->
      Printf.sprintf "put t%d %s (anchor %s)" txn key anchor
  | Op_resolve { txn; keys; commit } ->
      Printf.sprintf "resolve t%d [%s] %s" txn (String.concat ";" keys)
        (if commit = None then "abort" else "commit")
  | Op_txn { txn; upd; _ } -> Printf.sprintf "txn t%d %s" txn (pp_update upd)
  | Op_prevent { txn; key; ts } ->
      Printf.sprintf "prevent t%d %s @%s" txn key (Ts.to_string ts)
  | Op_split { at; _ } -> "split " ^ at
  | Op_merge _ -> "merge"

let sm_cmd i op =
  { Replica_state.closed = Ts.of_wall i; proposer = 0; proposed_at = i; op;
    done_ = Crdb_sim.Ivar.create () }

(* A merge trigger whose cell already holds the subsumed range's state at
   entry [i]: [key]'s transaction wrote it and, if [commit], committed. *)
let sm_merge i (key, txn) commit =
  let right = Replica_state.create () in
  let ts = Ts.of_wall i in
  List.iteri
    (fun k op ->
      ignore (Replica_state.apply right ~applied:(k + 1) (sm_cmd i op)
        : [ `Applied | `Prevented ]))
    (Replica_state.Op_put
       { txn; ts; key; value = Some (string_of_int i); pri = ts; anchor = key }
    :: (if commit then [ Op_resolve { txn; keys = [ key ]; commit = Some ts } ]
        else []));
  let cell = Crdb_sim.Ivar.create () in
  Crdb_sim.Ivar.fill cell (Replica_state.take_snapshot right);
  Replica_state.Op_merge { right = 1; cell }

(* A random well-formed log: entry [i] proposes at time [i] and writes at
   timestamp [i], and a put never meets another transaction's intent — the
   generator resolves the holder first — since that only happens on a
   diverged replica. Merge triggers absorb keys outside [sm_keys]. *)
let gen_sm_log =
  let open QCheck.Gen in
  let* n = int_range 1 40 in
  let rec go i holders acc =
    if i > n then return (List.rev acc)
    else
      let ts = Ts.of_wall i in
      let* txn = oneofl sm_txns in
      let* key = oneofa sm_keys in
      let* commit = oneofl [ Some ts; None ] in
      let* hb = int_range 0 n in
      let* kind = int_range 0 6 in
      let resolve txn =
        ( Replica_state.Op_resolve { txn; keys = [ key ]; commit },
          List.filter (fun h -> h <> (key, txn)) holders )
      in
      let* op, holders =
        match kind with
        | 0 | 1 -> (
            match List.assoc_opt key holders with
            | Some holder when holder <> txn -> return (resolve holder)
            | Some _ | None ->
                return
                  ( Replica_state.Op_put
                      { txn; ts; key; value = Some (string_of_int i); pri = ts;
                        anchor = sm_anchor txn },
                    (key, txn) :: List.remove_assoc key holders ))
        | 2 -> return (resolve txn)
        | 3 ->
            let+ at = int_range 1 i in
            (Replica_state.Op_prevent { txn; key; ts = Ts.of_wall at }, holders)
        | 6 ->
            let+ right = oneofa sm_right in
            (sm_merge i right (commit <> None), holders)
        | _ ->
            let+ upd =
              oneofl
                Txnrec.
                  [
                    U_register { pri = ts; hb };
                    U_heartbeat { hb };
                    U_stage { pri = ts; ts; inflight = [ key ]; hb };
                    U_commit { ts };
                    U_wound { reason = "w" };
                    U_abandon { reason = "a"; if_hb_before = hb };
                    U_recover_abort { reason = "r" };
                    U_coord_abort { reason = "c" };
                  ]
            in
            (Replica_state.Op_txn { txn; tkey = sm_anchor txn; upd }, holders)
      in
      go (i + 1) holders (sm_cmd i op :: acc)
  in
  let* log = go 1 [] [] in
  let* k = int_range 0 n in
  let+ j = int_range 0 k in
  (log, k, j)

(* What a reader can see of a state: each of [keys]' reads at each of
   [tss], its intent and its preventions of [txns], and each of [txns]'
   records. *)
let observe ~keys ~tss ~txns (s : Replica_state.t) =
  let per_key key =
    ( List.map (fun ts -> Mvcc.read s.store ~key ~ts ~max_ts:ts ~for_txn:None) tss,
      Mvcc.intent_on s.store ~key,
      List.map (fun txn -> Mvcc.is_prevented s.store ~key ~txn_id:txn) txns )
  in
  (List.map per_key keys, List.map (fun txn -> Txnrec.find s.txns ~txn) txns)

(* Everything a reader can see of a state after a log of [n] entries:
   every key, timestamp and record the log can reach, and the closed
   timestamp. *)
let observe_sm n s =
  let right = Array.to_list sm_right in
  ( observe
      ~keys:(Array.to_list sm_keys @ List.map fst right)
      ~tss:(List.init (n + 2) Ts.of_wall)
      ~txns:(sm_txns @ List.map snd right) s,
    Replica_state.closed s )

(* A snapshot taken at any index [k], installed over a replica that had
   applied the first [j <= k] entries, plus the entries after [k], gives
   the state of applying the whole log — while the snapshot's source keeps
   applying, and whether the merge triggers it absorbs come before the
   snapshot, after it or on both sides. *)
let prop_snapshot_plus_suffix =
  let print (log, k, j) =
    Printf.sprintf "snapshot at %d over %d:\n%s" k j
      (String.concat "\n"
         (List.mapi
            (fun i cmd -> Printf.sprintf "%d: %s" (i + 1) (pp_op cmd.Replica_state.op))
            log))
  in
  QCheck.Test.make ~name:"snapshot plus log suffix equals the whole log"
    ~count:500 (QCheck.make ~print gen_sm_log) (fun (log, k, j) ->
      let n = List.length log in
      let apply s ~from ~upto =
        List.iteri
          (fun i cmd ->
            if i + 1 > from && i + 1 <= upto then
              ignore (Replica_state.apply s ~applied:(i + 1) cmd
                : [ `Applied | `Prevented ]))
          log
      in
      let whole = Replica_state.create () in
      apply whole ~from:0 ~upto:n;
      let source = Replica_state.create () in
      apply source ~from:0 ~upto:k;
      let snap = Replica_state.take_snapshot source in
      apply source ~from:k ~upto:n;
      let follower = Replica_state.create () in
      apply follower ~from:0 ~upto:j;
      Replica_state.install_snapshot follower snap;
      apply follower ~from:k ~upto:n;
      let want = observe_sm n whole in
      want = observe_sm n source && want = observe_sm n follower)

(* [n] replicas step through one log in a random interleaving. A step
   [(r, kind)] applies replica [r]'s next entry (kinds 0-6), installs on [r]
   a snapshot of the replica furthest ahead (7), or forgets the entries the
   replicas taken as live have applied: all of them (9), or all but [r],
   taken as dead (8). *)
let gen_shared_run =
  let open QCheck.Gen in
  let* log, _, _ = gen_sm_log in
  let* n = int_range 2 4 in
  let+ steps =
    list_size
      (int_range 0 (3 * n * List.length log))
      (pair (int_range 0 (n - 1)) (int_range 0 9))
  in
  (log, n, steps)

(* Replicas that share store effects through one table read the same, and
   ack the same, as replicas that apply alone: the stepping replica after
   each step of a random interleaving with lagging replicas, snapshots and
   forgotten entries, and every replica once all have applied the whole
   log. *)
let prop_shared_apply =
  let print (log, n, steps) =
    Printf.sprintf "%d replicas, steps %s:\n%s" n
      (String.concat " "
         (List.map (fun (r, kind) -> Printf.sprintf "%d:%d" r kind) steps))
      (String.concat "\n"
         (List.mapi
            (fun i cmd ->
              Printf.sprintf "%d: %s" (i + 1) (pp_op cmd.Replica_state.op))
            log))
  in
  QCheck.Test.make ~name:"shared apply equals independent apply" ~count:300
    (QCheck.make ~print gen_shared_run) (fun (log, n, steps) ->
      let log = Array.of_list log in
      let len = Array.length log in
      let table = Replica_state.shared () in
      let shared = Array.init n (fun _ -> Replica_state.create ()) in
      let alone = Array.init n (fun _ -> Replica_state.create ()) in
      let pos = Array.make n 0 in
      let acks_agree = ref true in
      let apply r =
        let applied = pos.(r) + 1 and cmd = log.(pos.(r)) in
        let ack = Replica_state.apply ~shared:table shared.(r) ~applied cmd in
        acks_agree :=
          !acks_agree && ack = Replica_state.apply alone.(r) ~applied cmd;
        pos.(r) <- applied
      in
      let agrees r = observe_sm len shared.(r) = observe_sm len alone.(r) in
      let step (r, kind) =
        (match kind with
        | 7 ->
            let src = ref r in
            Array.iteri (fun q p -> if p > pos.(!src) then src := q) pos;
            let src = !src in
            if src <> r then begin
              let install reps =
                Replica_state.install_snapshot reps.(r)
                  (Replica_state.take_snapshot reps.(src))
              in
              install shared;
              install alone;
              pos.(r) <- pos.(src)
            end
        | 8 | 9 ->
            let through = ref max_int in
            Array.iteri
              (fun q p -> if kind = 9 || q <> r then through := min !through p)
              pos;
            Replica_state.forget table ~through:!through
        | _ -> if pos.(r) < len then apply r);
        agrees r
      in
      let stepped = List.for_all step steps in
      Array.iteri
        (fun r _ ->
          while pos.(r) < len do
            apply r
          done)
        pos;
      stepped && !acks_agree && List.for_all agrees (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "zone survival config" `Quick test_zone_survival_config;
    Alcotest.test_case "region survival config" `Quick test_region_survival_config;
    Alcotest.test_case "restricted config" `Quick test_restricted_config;
    Alcotest.test_case "invalid configs" `Quick test_invalid_configs;
    Alcotest.test_case "allocator zone survival" `Quick test_allocator_zone_survival;
    Alcotest.test_case "allocator region survival" `Quick
      test_allocator_region_survival;
    Alcotest.test_case "allocator load balance" `Quick test_allocator_balances_load;
    Alcotest.test_case "allocator unsatisfiable" `Quick test_allocator_unsatisfiable;
    Alcotest.test_case "allocator placement grid" `Quick test_allocator_grid;
    Alcotest.test_case "basic write/read" `Quick test_cluster_basic_write_read;
    Alcotest.test_case "local latency" `Quick test_cluster_local_latency;
    Alcotest.test_case "follower stale read" `Quick test_follower_stale_read;
    Alcotest.test_case "global future writes" `Quick test_global_range_future_writes;
    Alcotest.test_case "global read uncertainty" `Quick test_global_read_uncertainty;
    Alcotest.test_case "tscache pushes writer" `Quick test_tscache_pushes_writer;
    Alcotest.test_case "write-write conflict" `Quick test_write_write_conflict_queues;
    Alcotest.test_case "refresh" `Quick test_refresh;
    Alcotest.test_case "zone survival loses region" `Quick
      test_zone_survival_loses_region;
    Alcotest.test_case "region survival survives" `Quick
      test_region_survival_survives_region;
    Alcotest.test_case "zone failure tolerated" `Quick test_zone_failure_tolerated;
    Alcotest.test_case "negotiate" `Quick test_negotiate;
    Alcotest.test_case "follower scan local vs remote" `Quick
      test_follower_scan_local_vs_remote;
    Alcotest.test_case "follower scan redirects" `Quick
      test_follower_scan_redirects;
    Alcotest.test_case "follower scan stitches split" `Quick
      test_follower_scan_stitches_split;
    Alcotest.test_case "bulk load" `Quick test_bulk_load_visible;
    Alcotest.test_case "bulk load keeps replica state" `Quick
      test_bulk_load_keeps_replica_state;
    Alcotest.test_case "bulk load memory follows keys" `Quick
      test_bulk_load_memory_follows_keys;
    Alcotest.test_case "multi-range routing" `Quick test_multi_range_routing;
    Alcotest.test_case "resolve awaits the anchor range" `Quick
      test_resolve_awaits_anchor_range;
      QCheck_alcotest.to_alcotest prop_snapshot_plus_suffix;
    QCheck_alcotest.to_alcotest prop_shared_apply;
  ]
