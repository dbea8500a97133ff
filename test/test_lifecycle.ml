(* Tests for the range lifecycle: splits, merges, allocator-driven
   rebalancing, and routing through the ordered span map. *)

module Sim = Crdb_sim.Sim
module Ivar = Crdb_sim.Ivar
module Proc = Crdb_sim.Proc
module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Transport = Crdb_net.Transport
module Ts = Crdb_hlc.Timestamp
module Raft = Crdb_raft.Raft
module Mvcc = Crdb_storage.Mvcc
module Zoneconfig = Crdb_kv.Zoneconfig
module Allocator = Crdb_kv.Allocator
module Cluster = Crdb_kv.Cluster
module Crdb = Crdb_core.Crdb
open Support

let check = Alcotest.check
let regions5 = Latency.table1_regions
let home = "us-east1"
let topo5 = Topology.symmetric ~regions:regions5 ~nodes_per_region:3

let zone_config ?(survival = Zoneconfig.Zone) ?(placement = Zoneconfig.Default)
    ?(home = home) () =
  Zoneconfig.derive ~regions:regions5 ~home ~survival ~placement

let make_cluster () =
  Cluster.create ~topology:topo5 ~latency:Latency.table1 ()

(* A settled cluster with ranges over [spans], all placed by one zone config
   homed in [home]. *)
let make ?(survival = Zoneconfig.Zone) ?(home = home) spans =
  Crdb.kv_cluster ~regions:regions5 ~home ~survival
    ~ranges:(List.map (fun span -> (span, Cluster.Lag)) spans)
    ()

let one_range ?survival ?home () =
  let cl, rids = make ?survival ?home [ ("a", "z") ] in
  (cl, List.hd rids)

let scan_keys cl ~gateway ~start_key ~end_key =
  let ts = Cluster.now_ts cl gateway in
  let max_ts = Ts.add_wall ts (Cluster.config cl).Cluster.max_offset in
  match
    Cluster.scan cl ~gateway ~txn:None ~start_key ~end_key ~ts ~max_ts
      ~limit:None ()
  with
  | `Ok rows -> List.map fst rows
  | `Uncertain _ -> Alcotest.fail "scan uncertain"
  | `Redirect -> Alcotest.fail "scan redirect"
  | `Wounded e | `Err e ->
      Alcotest.failf "scan error: %s" e

(* ------------------------------------------------------------------ *)
(* Split                                                               *)

let test_split_preserves_data () =
  let cl, rid = one_range () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      ignore (put cl ~gateway:gw ~txn:1 "apple" "red");
      ignore (put cl ~gateway:gw ~txn:2 "orange" "juicy"));
  let right =
    match Cluster.split_range cl rid ~at:"m" with
    | Some r -> r
    | None -> Alcotest.fail "split must succeed with a settled leaseholder"
  in
  Cluster.run_for cl 3_000_000;
  check Alcotest.int "left keeps its id" rid (Cluster.range_of_key cl "apple");
  check Alcotest.int "right half routes to the new range" right
    (Cluster.range_of_key cl "orange");
  check
    Alcotest.(pair string string)
    "left span shrinks" ("a", "m") (Cluster.span_of cl rid);
  check
    Alcotest.(pair string string)
    "right span" ("m", "z")
    (Cluster.span_of cl right);
  Cluster.run cl (fun () ->
      check Alcotest.(option string) "left data survives" (Some "red")
        (get cl ~gateway:gw "apple");
      check Alcotest.(option string) "right data survives" (Some "juicy")
        (get cl ~gateway:gw "orange");
      (* Writes keep working on both halves after the split. *)
      ignore (put cl ~gateway:gw ~txn:3 "banana" "yellow");
      ignore (put cl ~gateway:gw ~txn:4 "pear" "green");
      check Alcotest.(option string) "post-split left write" (Some "yellow")
        (get cl ~gateway:gw "banana");
      check Alcotest.(option string) "post-split right write" (Some "green")
        (get cl ~gateway:gw "pear"));
  Alcotest.check_raises "split key outside span rejected"
    (Invalid_argument "Cluster.split_range: split key outside span") (fun () ->
      ignore (Cluster.split_range cl rid ~at:"zz"))

let test_merge_subsumes_right () =
  let cl, rid = one_range () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      ignore (put cl ~gateway:gw ~txn:1 "apple" "red");
      ignore (put cl ~gateway:gw ~txn:2 "orange" "juicy"));
  let right = Option.get (Cluster.split_range cl rid ~at:"m") in
  Cluster.run_for cl 3_000_000;
  check Alcotest.int "two ranges before merge" 2
    (List.length (Cluster.ranges cl));
  check Alcotest.bool "merge succeeds" true (Cluster.merge_range cl rid);
  Cluster.run_for cl 1_000_000;
  check Alcotest.int "one range after merge" 1 (List.length (Cluster.ranges cl));
  check
    Alcotest.(pair string string)
    "span restored" ("a", "z") (Cluster.span_of cl rid);
  check Alcotest.int "right keys route back to the left range" rid
    (Cluster.range_of_key cl "orange");
  check Alcotest.bool "subsumed range is gone" false
    (List.mem right (Cluster.ranges cl));
  Cluster.run_for cl 2_000_000;
  Cluster.run cl (fun () ->
      check Alcotest.(option string) "left data intact" (Some "red")
        (get cl ~gateway:gw "apple");
      check Alcotest.(option string) "absorbed data readable" (Some "juicy")
        (get cl ~gateway:gw "orange");
      ignore (put cl ~gateway:gw ~txn:3 "pear" "green");
      check Alcotest.(option string) "post-merge write" (Some "green")
        (get cl ~gateway:gw "pear"))

let test_merge_requires_matching_config () =
  let cl = make_cluster () in
  let r1 =
    Cluster.add_range cl ~span:("a", "m") ~zone:(zone_config ())
      ~policy:Cluster.Lag
  in
  ignore
    (Cluster.add_range cl ~span:("m", "z")
       ~zone:(zone_config ~home:"europe-west2" ())
       ~policy:Cluster.Lag);
  Cluster.settle cl;
  check Alcotest.bool "mismatched zones refuse to merge" false
    (Cluster.merge_range cl r1)

let test_merge_requires_adjacency () =
  (* A range whose right edge is not another range's left edge has no merge
     partner: merging must be refused cleanly, leaving spans and routing
     untouched. Exercises both a keyspace gap and the rightmost range. *)
  let cl, rids = make [ ("a", "m"); ("q", "z") ] in
  let r1 = List.hd rids and r2 = List.nth rids 1 in
  check Alcotest.bool "gap on the right refuses to merge" false
    (Cluster.merge_range cl r1);
  check Alcotest.bool "rightmost range refuses to merge" false
    (Cluster.merge_range cl r2);
  check
    Alcotest.(pair string string)
    "left span untouched" ("a", "m") (Cluster.span_of cl r1);
  check
    Alcotest.(pair string string)
    "right span untouched" ("q", "z") (Cluster.span_of cl r2);
  check Alcotest.int "both ranges still route" 2 (List.length (Cluster.ranges cl));
  (* Both ranges still serve traffic after the refused merges. *)
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      ignore (put cl ~gateway:gw ~txn:1 "apple" "red");
      ignore (put cl ~gateway:gw ~txn:2 "rhubarb" "tart");
      check Alcotest.(option string) "left range write" (Some "red")
        (get cl ~gateway:gw "apple");
      check Alcotest.(option string) "right range write" (Some "tart")
        (get cl ~gateway:gw "rhubarb"))

let test_hundred_splits_route () =
  let cl, rids = make [ ("k", "k~") ] in
  let rid = List.hd rids in
  let n_keys = 150 in
  let key i = Printf.sprintf "k%03d" i in
  Cluster.bulk_load cl
    (List.init n_keys (fun i -> (key i, "v" ^ string_of_int i)));
  (* Split every splittable range until the span map holds > 100 ranges. *)
  let target = 101 in
  let rec split_loop rounds =
    if rounds > 0 && List.length (Cluster.ranges cl) < target then begin
      List.iter
        (fun r ->
          if List.length (Cluster.ranges cl) < target then
            match Cluster.split_point cl r with
            | Some at -> ignore (Cluster.split_range cl r ~at)
            | None -> ())
        (Cluster.ranges cl);
      Cluster.run_for cl 2_000_000;
      split_loop (rounds - 1)
    end
  in
  split_loop 10;
  let n_ranges = List.length (Cluster.ranges cl) in
  check Alcotest.bool
    (Printf.sprintf "at least %d ranges (got %d)" target n_ranges)
    true
    (n_ranges >= target);
  (* Every key routes to a range whose span actually contains it. *)
  for i = 0 to n_keys - 1 do
    let k = key i in
    let r = Cluster.range_of_key cl k in
    let s, e = Cluster.span_of cl r in
    check Alcotest.bool ("span contains " ^ k) true (s <= k && k < e)
  done;
  check Alcotest.int "original id still routes its leftmost key" rid
    (Cluster.range_of_key cl (key 0));
  Cluster.run_for cl 5_000_000;
  let gw = node_in cl home 1 in
  Cluster.run cl (fun () ->
      check Alcotest.(option string) "read across many splits" (Some "v17")
        (get cl ~gateway:gw (key 17));
      check Alcotest.(option string) "read near the right edge" (Some "v149")
        (get cl ~gateway:gw (key 149));
      (* A single scan stitches all fragments back together. *)
      let keys = scan_keys cl ~gateway:gw ~start_key:"k" ~end_key:"k~" in
      check Alcotest.int "scan sees every row across all ranges" n_keys
        (List.length keys);
      check Alcotest.(list string) "scan ordered"
        (List.init n_keys key) keys)

(* ------------------------------------------------------------------ *)
(* Replica agreement across lease moves and splits                     *)

(* A voter other than the leaseholder [lh]. *)
let other_voter cl rid lh =
  match
    List.find_opt
      (fun (n, k) -> k = Raft.Voter && n <> lh)
      (Cluster.replica_nodes cl rid)
  with
  | Some (n, _) -> n
  | None -> Alcotest.fail "expected a non-leaseholder voter"

let ok_ts = function
  | `Ok ts -> ts
  | `Wounded e | `Err e -> Alcotest.failf "write failed: %s" e

(* A new leaseholder must not evaluate before it has applied the entries
   its predecessor committed: a write admitted over an intent it has not
   applied yet would be dropped when that intent applies. *)
let test_new_leader_applies_before_serving () =
  let cl, rid = one_range () in
  let sim = Cluster.sim cl in
  let lh = Option.get (Cluster.leaseholder cl rid) in
  let target = other_voter cl rid lh in
  Cluster.run cl (fun () ->
      let c1 =
        ok_ts
          (Cluster.write cl ~applied:(Ivar.create ()) ~gateway:lh ~txn:1
             ~key:"k" ~value:(Some "v1") ~ts:(Cluster.now_ts cl lh) ())
      in
      Cluster.transfer_lease cl rid ~target;
      while Cluster.leaseholder cl rid <> Some target do
        Proc.sleep sim 1_000
      done;
      let w2 =
        Proc.async sim (fun () ->
            Cluster.write cl ~gateway:target ~txn:2 ~key:"k" ~value:(Some "v2")
              ~ts:(Cluster.now_ts cl target) ())
      in
      Cluster.resolve cl ~gateway:lh ~txn:1 ~commit:(Some c1) ~keys:[ "k" ] ();
      let c2 = ok_ts (Proc.await w2) in
      Cluster.resolve cl ~gateway:target ~txn:2 ~commit:(Some c2)
        ~keys:[ "k" ] ();
      check Alcotest.(option string) "the later write wins" (Some "v2")
        (get cl ~gateway:target "k"))

(* A replica that was down at a split forks its own right replica when it
   applies the trigger on revival, and then replays only the right log on
   it: no pre-split entry is replayed over writes the right range made. *)
let test_split_reaches_revived_replica () =
  let cl, rid = one_range () in
  let net = Cluster.net cl in
  let lh = Option.get (Cluster.leaseholder cl rid) in
  let down = other_voter cl rid lh in
  Transport.kill_node net down;
  Cluster.run cl (fun () ->
      let c1 =
        ok_ts
          (Cluster.write cl ~gateway:lh ~txn:1 ~key:"orange"
             ~value:(Some "v1") ~ts:(Cluster.now_ts cl lh) ())
      in
      ignore (Option.get (Cluster.split_range cl rid ~at:"m"));
      Proc.sleep (Cluster.sim cl) 1_000_000;
      Cluster.resolve cl ~gateway:lh ~txn:1 ~commit:(Some c1)
        ~keys:[ "orange" ] ();
      ignore (put cl ~gateway:lh ~txn:2 "orange" "v2"));
  Cluster.restart_node cl down;
  Cluster.run_for cl 20_000_000;
  let right = Cluster.range_of_key cl "orange" in
  check Alcotest.bool "orange moved to the right range" true (right <> rid);
  let store n = (Option.get (Cluster.state_of cl right n)).store in
  let serving = Option.get (Cluster.leaseholder cl right) in
  let want = Mvcc.latest_ts (store serving) ~key:"orange" in
  List.iter
    (fun (n, _) ->
      let name what = Printf.sprintf "n%d %s" n what in
      check Alcotest.bool (name "has no intent") true
        (Mvcc.intent_on (store n) ~key:"orange" = None);
      check Alcotest.bool (name "has the latest version") true
        (Ts.equal want (Mvcc.latest_ts (store n) ~key:"orange")))
    (Cluster.replica_nodes cl right);
  check Alcotest.bool "the revived node holds a right replica" true
    (List.mem_assoc down (Cluster.replica_nodes cl right));
  Cluster.transfer_lease cl right ~target:down;
  Cluster.run_for cl 5_000_000;
  check Alcotest.(option int) "the revived node holds the lease" (Some down)
    (Cluster.leaseholder cl right);
  Cluster.run cl (fun () ->
      check Alcotest.(option string) "the revived node serves v2" (Some "v2")
        (get cl ~gateway:down "orange"))

(* A merge does not wait for a left replica that lags behind the range's
   last split trigger: a voter down at both triggers applies them from the
   left log in order when it revives, with no snapshot. Its fork finds the
   right range gone, and it absorbs the state the merge trigger captured,
   so it ends up with what every other replica holds. *)
let test_merge_does_not_wait_for_lagging_replica () =
  let cl, rid = one_range () in
  let lh = Option.get (Cluster.leaseholder cl rid) in
  let down = other_voter cl rid lh in
  Transport.kill_node (Cluster.net cl) down;
  let right = Option.get (Cluster.split_range cl rid ~at:"m") in
  let leased () =
    List.mem right (Cluster.ranges cl) && Cluster.leaseholder cl right <> None
  in
  let rec await_lease attempts =
    if (not (leased ())) && attempts > 0 then begin
      Cluster.run_for cl 500_000;
      await_lease (attempts - 1)
    end
  in
  await_lease 40;
  check Alcotest.bool "the right range has a leaseholder" true (leased ());
  let tss =
    Cluster.run cl (fun () ->
        let t1 = put cl ~gateway:lh ~txn:1 "apple" "red" in
        let t2 = put cl ~gateway:lh ~txn:2 "orange" "juicy" in
        (* Txn 3 stays open: its intent and record move with the merge. *)
        let t3 =
          ok_ts
            (Cluster.write cl ~gateway:lh ~txn:3 ~anchor:"pear" ~key:"pear"
               ~value:(Some "green") ~ts:(Cluster.now_ts cl lh) ())
        in
        [ Ts.zero; t1; t2; t3; Cluster.now_ts cl lh ])
  in
  check Alcotest.bool "merge proposed while a voter lacks the split trigger"
    true (Cluster.merge_range cl rid);
  Cluster.run_for cl 1_000_000;
  check Alcotest.int "right keys route to the merged range" rid
    (Cluster.range_of_key cl "orange");
  check Alcotest.bool "the right range is gone" false
    (List.mem right (Cluster.ranges cl));
  Cluster.restart_node cl down;
  Cluster.run_for cl 20_000_000;
  check Alcotest.int "the revived voter caught up from the log" 0
    (Crdb_obs.Metrics.total
       (Crdb_obs.Obs.metrics (Cluster.obs cl))
       "raft.snapshots_sent");
  let observe n =
    Test_kv.observe ~keys:[ "apple"; "orange"; "pear" ] ~tss ~txns:[ 1; 2; 3 ]
      (Option.get (Cluster.state_of cl rid n))
  in
  let want = observe lh in
  List.iter
    (fun (n, _) ->
      check Alcotest.bool
        (Printf.sprintf "n%d holds what the leaseholder holds" n)
        true
        (observe n = want))
    (Cluster.replica_nodes cl rid);
  check Alcotest.bool "the revived node holds a replica" true
    (List.mem_assoc down (Cluster.replica_nodes cl rid));
  Cluster.transfer_lease cl rid ~target:down;
  Cluster.run_for cl 5_000_000;
  check Alcotest.(option int) "the revived node holds the lease" (Some down)
    (Cluster.leaseholder cl rid);
  Cluster.run cl (fun () ->
      check Alcotest.(option string) "left write survives the merge"
        (Some "red") (get cl ~gateway:down "apple");
      check Alcotest.(option string) "the revived node serves absorbed data"
        (Some "juicy") (get cl ~gateway:down "orange"))

(* Replicas at the same log index share one store and one record table.
   After fault-free runs of writes, around a split and a merge, every
   replica of each range holds its leaseholder's two maps and the range
   holds no shared effect. A node down
   through a run of writes holds none back: the range keeps at most its
   live replicas' apply lag. Revived, the node catches up from the log and
   reads what the others read. The same holds for a replica a partition
   cuts off from the leaseholder. *)
let test_replicas_share_applied_writes () =
  let cl, rid = one_range () in
  let net = Cluster.net cl in
  let gw = node_in cl home 0 in
  let keys = List.init 12 (Printf.sprintf "k%02d") in
  let txns = ref [] and tss = ref [ Ts.zero ] in
  let write_all ?(each = ignore) () =
    Cluster.run cl (fun () ->
        List.iter
          (fun key ->
            let txn = List.length !txns + 1 in
            txns := txn :: !txns;
            tss :=
              put cl ~gateway:gw ~txn ~anchor:key key (string_of_int txn)
              :: !tss;
            each ())
          keys);
    Cluster.run_for cl 1_000_000
  in
  let state rid n = Option.get (Cluster.state_of cl rid n) in
  let check_shared what =
    List.iter
      (fun rid ->
        let lh = state rid (Option.get (Cluster.leaseholder cl rid)) in
        List.iter
          (fun (n, _) ->
            check Alcotest.bool
              (Printf.sprintf "%s: n%d shares r%d's leaseholder store" what n rid)
              true
              (Mvcc.shares_map (state rid n).store lh.store);
            check Alcotest.bool
              (Printf.sprintf "%s: n%d shares r%d's leaseholder records" what n
                 rid)
              true
              (Crdb_kv.Txnrec.shares (state rid n).txns lh.txns))
          (Cluster.replica_nodes cl rid);
        check Alcotest.int
          (Printf.sprintf "%s: r%d holds no shared effect" what rid)
          0
          (Cluster.shared_effects cl rid))
      (Cluster.ranges cl)
  in
  write_all ();
  check_shared "writes";
  ignore (Option.get (Cluster.split_range cl rid ~at:"k06") : Cluster.range_id);
  Cluster.run_for cl 3_000_000;
  write_all ();
  check_shared "split";
  check Alcotest.bool "merge proposed" true (Cluster.merge_range cl rid);
  Cluster.run_for cl 1_000_000;
  check Alcotest.(list int) "merged" [ rid ] (Cluster.ranges cl);
  write_all ();
  check_shared "merge";
  let lh = Option.get (Cluster.leaseholder cl rid) in
  let down = other_voter cl rid lh in
  Transport.kill_node net down;
  (* The replicas the log reaches: live, and not cut off from the
     leaseholder. *)
  let fed n =
    match Cluster.leaseholder cl rid with
    | Some lh -> Transport.reachable net lh n
    | None -> Transport.is_alive net n
  in
  let live_lag () =
    let applied =
      List.filter_map
        (fun (n, _) -> if fed n then Cluster.applied_index cl rid n else None)
        (Cluster.replica_nodes cl rid)
    in
    List.fold_left max 0 applied - List.fold_left min max_int applied
  in
  let worst = ref 0 in
  let bounded () =
    let held = Cluster.shared_effects cl rid and lag = live_lag () in
    worst := max !worst held;
    if held > lag then
      Alcotest.failf "%d shared effects held over a live apply lag of %d" held
        lag
  in
  write_all ~each:bounded ();
  write_all ~each:bounded ();
  check Alcotest.bool "effects were shared while the node was down" true
    (!worst > 0);
  check Alcotest.int "a dead replica holds no effect back" 0
    (Cluster.shared_effects cl rid);
  Cluster.restart_node cl down;
  Cluster.run_for cl 5_000_000;
  write_all ();
  let observe n =
    Test_kv.observe ~keys ~tss:!tss ~txns:!txns
      (Option.get (Cluster.state_of cl rid n))
  in
  let agree what =
    let want = observe (Option.get (Cluster.leaseholder cl rid)) in
    List.iter
      (fun (n, _) ->
        check Alcotest.bool
          (Printf.sprintf "%s: n%d reads what the leaseholder reads" what n)
          true
          (observe n = want))
      (Cluster.replica_nodes cl rid);
    check Alcotest.int
      (Printf.sprintf "%s: the range holds no shared effect" what)
      0
      (Cluster.shared_effects cl rid)
  in
  agree "revived";
  (* A partition cutting a non-voter's region off from the leaseholder's
     holds nothing back either, for as long as it lasts. *)
  let topo = Cluster.topology cl in
  let far =
    List.find_map
      (fun (n, _) ->
        let region = Topology.region_of topo n in
        if region <> home then Some region else None)
      (Cluster.replica_nodes cl rid)
    |> Option.get
  in
  Transport.partition_regions net home far;
  worst := 0;
  write_all ~each:bounded ();
  write_all ~each:bounded ();
  check Alcotest.bool "effects were shared during the partition" true
    (!worst > 0);
  check Alcotest.int "a partitioned replica holds no effect back" 0
    (Cluster.shared_effects cl rid);
  Transport.heal_partitions net;
  Cluster.run_for cl 5_000_000;
  write_all ();
  agree "healed"

(* A replica that has not applied its range's last merge trigger answers
   for no key: its range already spans the absorbed keys, but it lacks
   their data. A follower cut off before the trigger applies must redirect
   a read of an absorbed key below its closed timestamp, not miss the
   value; once it catches up it serves it. *)
let test_lagging_follower_redirects_absorbed_keys () =
  let cl, rid = one_range () in
  let net = Cluster.net cl in
  ignore (Option.get (Cluster.split_range cl rid ~at:"m"));
  Cluster.run_for cl 3_000_000;
  let gw = node_in cl home 0 in
  let written =
    Cluster.run cl (fun () -> put cl ~gateway:gw ~txn:1 "orange" "juicy")
  in
  Cluster.run_for cl 5_000_000;
  let far, _ =
    List.find
      (fun (n, _) -> Topology.region_of (Cluster.topology cl) n <> home)
      (Cluster.replica_nodes cl rid)
  in
  let far_region = Topology.region_of (Cluster.topology cl) far in
  Transport.partition_regions net home far_region;
  check Alcotest.bool "merge proposed" true (Cluster.merge_range cl rid);
  Cluster.run_for cl 1_000_000;
  check Alcotest.int "the absorbed key routes to the merged range" rid
    (Cluster.range_of_key cl "orange");
  let follower_read () =
    let ts = Cluster.local_closed cl ~at:far rid in
    check Alcotest.bool "the follower closed the write" true
      (Ts.compare ts written >= 0);
    Cluster.run cl (fun () ->
        Cluster.read_follower cl ~at:far ~txn:None ~key:"orange" ~ts ~max_ts:ts
          ())
  in
  (match follower_read () with
  | `Redirect -> ()
  | `Ok v ->
      Alcotest.failf "a follower without the merge served %s"
        (Option.value v ~default:"nothing")
  | `Uncertain _ | `Wounded _ | `Err _ ->
      Alcotest.fail "expected a redirect");
  Transport.heal_partition net home far_region;
  Cluster.run_for cl 5_000_000;
  match follower_read () with
  | `Ok v ->
      check Alcotest.(option string) "the caught-up follower serves it"
        (Some "juicy") v
  | `Redirect | `Uncertain _ | `Wounded _ | `Err _ ->
      Alcotest.fail "the caught-up follower must serve the absorbed key"

(* A transaction record's heartbeat is part of the replicated state: the
   registering write stamps its proposal time, not each replica's apply
   time. A follower cut off while the anchor write commits applies it, and
   the abandonment that followed, late from the log; once it holds the
   lease it must still see the record aborted and refuse to stage it. *)
let test_abandon_reaches_late_follower () =
  let cl, rid = one_range () in
  let net = Cluster.net cl in
  let lh = Option.get (Cluster.leaseholder cl rid) in
  let late = other_voter cl rid lh in
  let pri = Cluster.now_ts cl lh in
  Transport.kill_node net late;
  let ts =
    Cluster.run cl (fun () ->
        let ts =
          ok_ts
            (Cluster.write cl ~gateway:lh ~txn:1 ~pri ~anchor:"k" ~key:"k"
               ~value:(Some "v1") ~ts:pri ())
        in
        (* Txn 1's coordinator stays silent: a recordless writer pushes its
           record until it is abandoned, cleans up the intent and commits. *)
        ignore (put cl ~gateway:lh ~txn:2 "k" "v2");
        ts)
  in
  Transport.revive_node net late;
  Cluster.run_for cl 5_000_000;
  check Alcotest.int "the late follower caught up from the log" 0
    (Crdb_obs.Metrics.total
       (Crdb_obs.Obs.metrics (Cluster.obs cl))
       "raft.snapshots_sent");
  Cluster.transfer_lease cl rid ~target:late;
  Cluster.run_for cl 5_000_000;
  check Alcotest.(option int) "the late follower holds the lease" (Some late)
    (Cluster.leaseholder cl rid);
  Cluster.run cl (fun () ->
      match
        Cluster.txn_update cl ~gateway:lh ~name:"kv.txn_stage" ~txn:1 ~key:"k"
          (Crdb_kv.Txnrec.U_stage
             { pri; ts; inflight = []; hb = Sim.now (Cluster.sim cl) })
      with
      | Some (Crdb_kv.Txnrec.Aborted _) -> ()
      | Some (Crdb_kv.Txnrec.Staging _) ->
          Alcotest.fail "the new leaseholder staged an abandoned record"
      | Some _ | None -> Alcotest.fail "expected the abandoned record");
  check Alcotest.(option string) "the pusher's write stands" (Some "v2")
    (Cluster.run cl (fun () -> get cl ~gateway:late "k"))

(* ------------------------------------------------------------------ *)
(* Live-size accounting and load-based split points                    *)

let test_live_bytes_through_split_merge () =
  let cl, rid = one_range () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      ignore (put cl ~gateway:gw ~txn:1 "apple" "red");
      ignore (put cl ~gateway:gw ~txn:2 "orange" "juicy"));
  (* key + latest live value bytes: apple/red = 8, orange/juicy = 11. *)
  check Alcotest.(option int) "live bytes after writes" (Some 19)
    (Cluster.live_bytes cl rid);
  let right = Option.get (Cluster.split_range cl rid ~at:"m") in
  Cluster.run_for cl 3_000_000;
  check Alcotest.(option int) "left half keeps its bytes" (Some 8)
    (Cluster.live_bytes cl rid);
  check Alcotest.(option int) "right half carries the rest" (Some 11)
    (Cluster.live_bytes cl right);
  check Alcotest.bool "merge back" true (Cluster.merge_range cl rid);
  Cluster.run_for cl 1_000_000;
  check Alcotest.(option int) "merge restores the total" (Some 19)
    (Cluster.live_bytes cl rid);
  (* A deletion tombstones the key: it stops counting entirely. *)
  Cluster.run cl (fun () ->
      let ts = Cluster.now_ts cl gw in
      match
        Cluster.write cl ~gateway:gw ~txn:3 ~key:"apple" ~value:None ~ts ()
      with
      | `Ok commit_ts ->
          Cluster.resolve cl ~gateway:gw ~txn:3 ~commit:(Some commit_ts)
            ~keys:[ "apple" ] ()
      | `Wounded e | `Err e ->
          Alcotest.failf "delete failed: %s" e);
  check Alcotest.(option int) "tombstoned key leaves the gauge" (Some 11)
    (Cluster.live_bytes cl rid)

let test_load_split_point_tracks_traffic () =
  let cl, rid = one_range () in
  Cluster.bulk_load cl [ ("b", "1"); ("c", "2"); ("t", "3"); ("u", "4") ];
  (* No requests yet: falls back to the keyspace median. *)
  check
    Alcotest.(option string)
    "no samples falls back to split_point"
    (Cluster.split_point cl rid)
    (Cluster.load_split_point cl rid);
  (* 20 of 21 recent requests hit "t": the weighted median must follow the
     traffic, not the (b,c,t,u) keyspace. *)
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      for _ = 1 to 20 do
        ignore (get cl ~gateway:gw "t")
      done;
      ignore (get cl ~gateway:gw "b"));
  check
    Alcotest.(option string)
    "weighted median is the hot key" (Some "t")
    (Cluster.load_split_point cl rid);
  (* Splitting resets the sample, so the next decision reflects post-split
     traffic only. The split lands once its trigger applies. *)
  ignore (Option.get (Cluster.split_range cl rid ~at:"t"));
  Cluster.run_for cl 1_000_000;
  check Alcotest.(list string) "samples cleared by the split" []
    (Cluster.sampled_keys cl rid)

(* ------------------------------------------------------------------ *)
(* Allocator diversity and rebalancing                                 *)

let test_allocator_skewed_diversity () =
  (* Region survival on a skewed topology: us-west1 has three zones while
     the remaining regions have one node each. The unpinned voters must
     spread across distinct *regions* even though piling into us-west1's
     zones would also avoid zone reuse. *)
  let topo =
    Topology.create
      [
        ("us-east1", "a"); ("us-east1", "b"); ("us-east1", "c");
        ("us-west1", "a"); ("us-west1", "b"); ("us-west1", "c");
        ("europe-west2", "a");
        ("asia-northeast1", "a");
        ("australia-southeast1", "a");
      ]
  in
  let zone =
    Zoneconfig.derive ~regions:regions5 ~home ~survival:Zoneconfig.Region
      ~placement:Zoneconfig.Default
  in
  let placement =
    Allocator.place ~topology:topo ~latency:Latency.table1
      ~load:(fun _ -> 0)
      ~zone
  in
  let voters = List.filter (fun (_, k) -> k = Raft.Voter) placement in
  check Alcotest.int "five voters" 5 (List.length voters);
  let unpinned_regions =
    List.filter_map
      (fun (n, _) ->
        let r = Topology.region_of topo n in
        if String.equal r home then None else Some r)
      voters
  in
  check Alcotest.int "three unpinned voters" 3 (List.length unpinned_regions);
  check Alcotest.int "unpinned voters in three distinct regions" 3
    (List.length (List.sort_uniq String.compare unpinned_regions))

let test_lease_preference_pinning () =
  let pref = "europe-west2" in
  (* Region survival spreads voters across regions, so there is always a
     voter outside the preferred region to push the lease to. *)
  let cl, rid = one_range ~survival:Zoneconfig.Region ~home:pref () in
  (match Cluster.leaseholder_region cl rid with
  | Some r -> check Alcotest.string "lease starts in preferred region" pref r
  | None -> Alcotest.fail "no leaseholder after settle");
  (* Push the lease away, then let the lease rebalancer pin it back. *)
  let away =
    match
      List.find_opt
        (fun (n, k) ->
          k = Raft.Voter && Topology.region_of (Cluster.topology cl) n <> pref)
        (Cluster.replica_nodes cl rid)
    with
    | Some (n, _) -> n
    | None -> Alcotest.fail "expected a voter outside the preferred region"
  in
  Cluster.transfer_lease cl rid ~target:away;
  Cluster.run_for cl 5_000_000;
  Cluster.rebalance_leases cl;
  Cluster.run_for cl 5_000_000;
  match Cluster.leaseholder_region cl rid with
  | Some r -> check Alcotest.string "lease pinned back" pref r
  | None -> Alcotest.fail "no leaseholder after rebalance"

let test_rebalance_convergence () =
  let cl, rid = one_range () in
  let lh = Option.get (Cluster.leaseholder cl rid) in
  (* Kill a home-region voter that is not the leaseholder; the allocator
     must walk the replica off the dead node, one move at a time. *)
  let victim = other_voter cl rid lh in
  Transport.kill_node (Cluster.net cl) victim;
  Cluster.run_for cl 20_000_000;
  (* One move at a time: none starts while the last one is still walking. *)
  check Alcotest.bool "first move starts" true (Cluster.rebalance_step cl rid);
  check Alcotest.bool "no second move while the first is in flight" false
    (Cluster.rebalance_step cl rid);
  Cluster.run_for cl 30_000_000;
  let rec converge steps =
    if steps = 0 then Alcotest.fail "rebalance did not converge"
    else if Cluster.rebalance_step cl rid then begin
      Cluster.run_for cl 30_000_000;
      converge (steps - 1)
    end
  in
  converge 8;
  let placement = Cluster.replica_nodes cl rid in
  check Alcotest.bool "dead node no longer holds a replica" false
    (List.mem_assoc victim placement);
  check Alcotest.int "replica count preserved"
    (Cluster.zone_of cl rid).Zoneconfig.num_replicas
    (List.length placement);
  (* A second pass finds nothing to do once the placement is clean. *)
  check Alcotest.bool "placement locally optimal" false
    (Cluster.rebalance_step cl rid);
  (* The range still serves traffic afterwards. *)
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      ignore (put cl ~gateway:gw ~txn:9 "k" "v");
      check Alcotest.(option string) "write after rebalance" (Some "v")
        (get cl ~gateway:gw "k"))

(* [alter_range] walks the group to its new placement one peer at a time:
   killing the old leaseholder right after an online zone change neither
   loses committed writes nor leaves the range without a leaseholder, and
   a change left alone ends on a placement that satisfies the new zone.
   Each case starts from one range homed in us-east1 holding 20 committed
   keys, runs [alter_range], optionally kills the old leaseholder [kill]
   ms later, and checks the range 15 s on. *)
let test_alter_range_walks_one_peer_at_a_time () =
  let keys = List.init 20 (Printf.sprintf "k%02d") in
  let has_leaseholder case cl rid =
    check Alcotest.bool (case ^ ": a leaseholder exists") true
      (Cluster.leaseholder cl rid <> None)
  in
  let reads_all ~home case cl rid =
    has_leaseholder case cl rid;
    let gw = node_in cl home 0 in
    let found =
      Cluster.run cl (fun () ->
          List.length
            (List.filter (fun k -> get cl ~gateway:gw k = Some "v") keys))
    in
    check Alcotest.int (case ^ ": committed keys read back") 20 found
  and satisfies_zone case cl rid =
    let zone = Cluster.zone_of cl rid
    and placement = Cluster.replica_nodes cl rid in
    check Alcotest.int (case ^ ": replicas") zone.Zoneconfig.num_replicas
      (List.length placement);
    check Alcotest.int (case ^ ": voters") zone.Zoneconfig.num_voters
      (List.length (List.filter (fun (_, k) -> k = Raft.Voter) placement));
    check Alcotest.bool (case ^ ": placement satisfies the zone") true
      (Allocator.satisfies ~topology:(Cluster.topology cl) ~zone placement)
  in
  let zone home = ("ZONE in " ^ home, zone_config ~home ())
  and region home =
    ("REGION in " ^ home, zone_config ~survival:Zoneconfig.Region ~home ())
  in
  let cases =
    List.concat_map
      (fun kill ->
        List.map
          (fun home -> (zone home, Some kill, reads_all ~home))
          [ "europe-west2"; "us-west1" ])
      [ 5; 20; 50 ]
    @ List.map
        (fun kill -> (region "europe-west2", Some kill, has_leaseholder))
        [ 5; 20 ]
    @ List.map
        (fun target -> (target, None, satisfies_zone))
        [ zone "europe-west2"; region "europe-west2" ]
  in
  List.iter
    (fun ((name, zone), kill, expect) ->
      let cl, rid = one_range () in
      let gw = node_in cl home 0 in
      Cluster.run cl (fun () ->
          List.iteri
            (fun i k -> ignore (put cl ~gateway:gw ~txn:(i + 1) k "v"))
            keys);
      let old_lh = Option.get (Cluster.leaseholder cl rid) in
      Cluster.alter_range cl rid ~zone ~policy:Cluster.Lag;
      Option.iter
        (fun ms ->
          Cluster.run_for cl (ms * 1_000);
          Transport.kill_node (Cluster.net cl) old_lh)
        kill;
      Cluster.run_for cl 15_000_000;
      let case =
        match kill with
        | Some ms -> Printf.sprintf "%s, leaseholder killed at %d ms" name ms
        | None -> name ^ ", no fault"
      in
      expect case cl rid)
    cases

let suite =
  [
    Alcotest.test_case "split preserves data" `Quick test_split_preserves_data;
    Alcotest.test_case "merge subsumes right" `Quick test_merge_subsumes_right;
    Alcotest.test_case "merge requires matching config" `Quick
      test_merge_requires_matching_config;
    Alcotest.test_case "merge requires adjacency" `Quick
      test_merge_requires_adjacency;
    Alcotest.test_case "100+ splits route" `Quick test_hundred_splits_route;
    Alcotest.test_case "new leader applies before serving" `Quick
      test_new_leader_applies_before_serving;
    Alcotest.test_case "split reaches a revived replica" `Quick
      test_split_reaches_revived_replica;
    Alcotest.test_case "abandon reaches a late follower" `Quick
      test_abandon_reaches_late_follower;
    Alcotest.test_case "merge does not wait for a lagging replica" `Quick
      test_merge_does_not_wait_for_lagging_replica;
    Alcotest.test_case "replicas share applied writes" `Quick
      test_replicas_share_applied_writes;
    Alcotest.test_case "lagging follower redirects absorbed keys" `Quick
      test_lagging_follower_redirects_absorbed_keys;
    Alcotest.test_case "live bytes through split and merge" `Quick
      test_live_bytes_through_split_merge;
    Alcotest.test_case "load split point tracks traffic" `Quick
      test_load_split_point_tracks_traffic;
    Alcotest.test_case "allocator skewed diversity" `Quick
      test_allocator_skewed_diversity;
    Alcotest.test_case "lease preference pinning" `Quick
      test_lease_preference_pinning;
    Alcotest.test_case "rebalance convergence" `Quick test_rebalance_convergence;
    Alcotest.test_case "alter range walks one peer at a time" `Quick
      test_alter_range_walks_one_peer_at_a_time;
  ]
