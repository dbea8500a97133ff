(* Tests for wound-wait conflict resolution: the lock table, the push/wound
   protocol, abandoned-intent recovery, and the consolidated Txn.Options.
   Every scenario that used to hang until the 10 s conflict timeout must now
   finish in bounded time with [kv.conflict_timeouts = 0]. *)

module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Ts = Crdb_hlc.Timestamp
module Zoneconfig = Crdb_kv.Zoneconfig
module Cluster = Crdb_kv.Cluster
module Txnrec = Crdb_kv.Txnrec
module Txn = Crdb_txn.Txn
module Crdb = Crdb_core.Crdb
module Obs = Crdb_obs.Obs
module Metrics = Crdb_obs.Metrics
module Events = Crdb_obs.Events

let check = Alcotest.check
let regions5 = Latency.table1_regions
let home = "us-east1"

(* One or two ranges over the test keyspace, leaseholders settled. *)
let make ?(two_ranges = false) () =
  let spans =
    if two_ranges then [ ("a", "m"); ("m", "zzzz") ] else [ ("a", "zzzz") ]
  in
  let cl, _ =
    Crdb.kv_cluster ~regions:regions5 ~home ~survival:Zoneconfig.Zone
      ~ranges:(List.map (fun span -> (span, Cluster.Lag 3_000_000)) spans)
      ()
  in
  (cl, Txn.create_manager cl)

let node_in cl region i =
  Topology.gateway (Cluster.topology cl) ~region ~index:i ()

let no_conflict_timeouts cl =
  check Alcotest.int "no conflict timeouts" 0
    (Metrics.total (Obs.metrics (Cluster.obs cl)) "kv.conflict_timeouts")

let expect_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "txn failed: %a" Txn.pp_error e

let write_ok ?pri ?anchor cl ~gateway ~txn ~key ~value =
  let ts = Cluster.now_ts cl gateway in
  match
    Cluster.write cl ?pri ?anchor ~gateway ~txn ~key ~value:(Some value) ~ts ()
  with
  | Cluster.Write_ok ts -> ts
  | Cluster.Write_wounded e | Cluster.Write_err e ->
      Alcotest.failf "write %s: %s" key e

(* ------------------------------------------------------------------ *)
(* Deadlocks resolved by wounding                                      *)

(* Two transactions acquire locks in opposite order: a textbook deadlock
   that the old code could only break with the 10 s conflict timeout. *)
let test_two_txn_deadlock () =
  let cl, mgr = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let t0 = Sim.now sim in
      let body first second name t =
        Txn.put t first (name ^ "1");
        Proc.sleep sim 300_000;
        Txn.put t second (name ^ "2")
      in
      let a = Proc.async sim (fun () -> Txn.run mgr ~gateway:gw (body "ka" "kb" "t1")) in
      let b = Proc.async sim (fun () -> Txn.run mgr ~gateway:gw (body "kb" "ka" "t2")) in
      List.iter (fun r -> expect_ok (Proc.await r)) [ a; b ];
      let elapsed = Sim.now sim - t0 in
      check Alcotest.bool
        (Printf.sprintf "deadlock broken fast (took %dus)" elapsed)
        true
        (elapsed < 8_000_000));
  check Alcotest.bool "at least one wound" true ((Txn.stats mgr).Txn.wounds >= 1);
  no_conflict_timeouts cl

(* Three-transaction cycle whose lock edges span two ranges: wounding is
   driven by push RPCs routed to each blocker's anchor range, so deadlocks
   crossing range (and leaseholder) boundaries break the same way. *)
let test_three_txn_cycle_two_ranges () =
  let cl, mgr = make ~two_ranges:true () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let t0 = Sim.now sim in
      let body first second name t =
        Txn.put t first (name ^ "1");
        Proc.sleep sim 300_000;
        Txn.put t second (name ^ "2")
      in
      (* b, c live in the left range; n in the right: the waits-for cycle
         b -> n -> c -> b crosses the range boundary twice. *)
      let ts =
        [
          Proc.async sim (fun () -> Txn.run mgr ~gateway:gw (body "b" "n" "t1"));
          Proc.async sim (fun () -> Txn.run mgr ~gateway:gw (body "n" "c" "t2"));
          Proc.async sim (fun () -> Txn.run mgr ~gateway:gw (body "c" "b" "t3"));
        ]
      in
      List.iter (fun r -> expect_ok (Proc.await r)) ts;
      let elapsed = Sim.now sim - t0 in
      check Alcotest.bool
        (Printf.sprintf "cycle broken fast (took %dus)" elapsed)
        true
        (elapsed < 8_000_000));
  check Alcotest.bool "at least one wound" true ((Txn.stats mgr).Txn.wounds >= 1);
  no_conflict_timeouts cl

(* ------------------------------------------------------------------ *)
(* Priority: the older transaction always survives                     *)

let test_older_wins () =
  let cl, _ = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let pri_old = Cluster.now_ts cl gw in
      Proc.sleep sim 1_000;
      let pri_young = Cluster.now_ts cl gw in
      (* The younger transaction takes the lock first (its record anchors at
         the written key)... *)
      ignore
        (write_ok cl ~pri:pri_young ~anchor:"k" ~gateway:gw ~txn:2 ~key:"k"
           ~value:"young");
      (* ...and the older pushes straight through it. *)
      let t0 = Sim.now sim in
      let ts =
        write_ok cl ~pri:pri_old ~anchor:"k" ~gateway:gw ~txn:1 ~key:"k"
          ~value:"old"
      in
      check Alcotest.bool "older waited only one push delay" true
        (Sim.now sim - t0 < 1_000_000);
      (match Cluster.txn_status cl ~gateway:gw ~txn:2 ~key:"k" () with
      | Some (Txnrec.Aborted { wound = true; _ }) -> ()
      | _ -> Alcotest.fail "younger must be wounded");
      Cluster.resolve cl ~gateway:gw ~txn:1 ~commit:(Some ts) ~keys:[ "k" ]
        ~sync_all:true ();
      (* The mirror image: a younger waiter queues behind an older holder
         instead of wounding it. *)
      let pri_young2 = Cluster.now_ts cl gw in
      let held =
        write_ok cl ~pri:pri_old ~anchor:"k2" ~gateway:gw ~txn:4 ~key:"k2"
          ~value:"old2"
      in
      let young_done = ref false in
      Proc.spawn sim (fun () ->
          ignore
            (write_ok cl ~pri:pri_young2 ~anchor:"k2" ~gateway:gw ~txn:3
               ~key:"k2" ~value:"young2");
          young_done := true);
      Proc.sleep sim 1_000_000;
      check Alcotest.bool "younger still queued" false !young_done;
      (match Cluster.txn_status cl ~gateway:gw ~txn:4 ~key:"k2" () with
      | Some Txnrec.Pending -> ()
      | _ -> Alcotest.fail "older must stay pending");
      Cluster.resolve cl ~gateway:gw ~txn:4 ~commit:(Some held) ~keys:[ "k2" ]
        ~sync_all:true ();
      Proc.sleep sim 500_000;
      check Alcotest.bool "younger proceeded after release" true !young_done);
  no_conflict_timeouts cl

(* ------------------------------------------------------------------ *)
(* Abandoned transactions                                              *)

(* A transaction with a record that stops heartbeating is declared abandoned
   after the liveness window (3 heartbeat intervals) and its intents are
   cleaned up by whoever pushes it — far sooner than the 10 s timeout. *)
let test_abandoned_registered_txn () =
  let cl, _ = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  let liveness = 3 * Cluster.txn_heartbeat_interval in
  Cluster.run cl (fun () ->
      let pri6 = Cluster.now_ts cl gw in
      ignore
        (write_ok cl ~pri:pri6 ~anchor:"k" ~gateway:gw ~txn:6 ~key:"k"
           ~value:"zombie");
      Proc.sleep sim 1_000;
      let pri7 = Cluster.now_ts cl gw in
      let t0 = Sim.now sim in
      ignore
        (write_ok cl ~pri:pri7 ~anchor:"k" ~gateway:gw ~txn:7 ~key:"k"
           ~value:"live");
      let elapsed = Sim.now sim - t0 in
      check Alcotest.bool
        (Printf.sprintf "cleanup near liveness window (took %dus)" elapsed)
        true
        (elapsed < liveness + 2_000_000);
      match Cluster.txn_status cl ~gateway:gw ~txn:6 ~key:"k" () with
      | Some (Txnrec.Aborted { wound = false; _ }) -> ()
      | _ -> Alcotest.fail "zombie must be aborted as abandoned");
  no_conflict_timeouts cl

(* A raw-API writer with no record at all gets a stub record (oldest
   priority, so never wounded) whose abandonment grace starts at the first
   push. *)
let test_abandoned_recordless_txn () =
  let cl, _ = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  let liveness = 3 * Cluster.txn_heartbeat_interval in
  Cluster.run cl (fun () ->
      ignore (write_ok cl ~gateway:gw ~txn:8 ~key:"k" ~value:"raw");
      let pri9 = Cluster.now_ts cl gw in
      let t0 = Sim.now sim in
      ignore
        (write_ok cl ~pri:pri9 ~anchor:"k" ~gateway:gw ~txn:9 ~key:"k"
           ~value:"live");
      let elapsed = Sim.now sim - t0 in
      check Alcotest.bool
        (Printf.sprintf "stub cleaned up after grace (took %dus)" elapsed)
        true
        (elapsed < liveness + 2_000_000);
      check Alcotest.bool "grace period respected" true (elapsed >= liveness));
  no_conflict_timeouts cl

(* A transaction whose record committed but whose coordinator died before
   resolving: the pusher commit-resolves the orphan intent on its behalf. *)
let test_committed_record_resolves_intent () =
  let cl, _ = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let pri10 = Cluster.now_ts cl gw in
      let ts =
        write_ok cl ~pri:pri10 ~anchor:"k" ~gateway:gw ~txn:10 ~key:"k"
          ~value:"orphan"
      in
      (match Cluster.commit_txn cl ~gateway:gw ~txn:10 ~key:"k" ~ts () with
      | Some (Txnrec.Committed _) -> ()
      | _ -> Alcotest.fail "commit_txn must land Committed");
      (* No resolve: a non-transactional reader hits the intent, pushes,
         learns the record committed, and finishes the resolution itself. *)
      Proc.sleep sim 10_000;
      let t0 = Sim.now sim in
      let read_ts = Cluster.now_ts cl gw in
      (match
         Cluster.read cl ~gateway:gw ~txn:None ~key:"k" ~ts:read_ts
           ~max_ts:read_ts ()
       with
      | Cluster.Read_value { value; _ } ->
          check Alcotest.(option string) "committed value visible"
            (Some "orphan") value
      | _ -> Alcotest.fail "reader must see the committed value");
      check Alcotest.bool "resolved within a few push delays" true
        (Sim.now sim - t0 < 1_000_000));
  no_conflict_timeouts cl

(* ------------------------------------------------------------------ *)
(* Lock strength: SELECT FOR SHARE / FOR UPDATE                        *)

(* Shared locks are compatible with each other: the second FOR SHARE reader
   acquires immediately even while the first still holds, and both block
   nobody but writers. *)
let test_shared_shared_compatible () =
  let cl, mgr = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "v0"));
      let t0 = Sim.now sim in
      let acquired = ref [] in
      let holder name =
        Proc.async sim (fun () ->
            Txn.run mgr ~gateway:gw (fun t ->
                ignore (Txn.get_for_share t "k");
                acquired := (name, Sim.now sim) :: !acquired;
                (* Hold the shared lock well past the other's acquire. *)
                Proc.sleep sim 400_000))
      in
      let a = holder "a" in
      Proc.sleep sim 50_000;
      let b = holder "b" in
      List.iter (fun r -> expect_ok (Proc.await r)) [ a; b ];
      List.iter
        (fun (name, at) ->
          check Alcotest.bool
            (Printf.sprintf "holder %s acquired without queueing" name)
            true
            (at - t0 < 300_000))
        !acquired);
  check Alcotest.int "no wounds between shared holders" 0
    (Txn.stats mgr).Txn.wounds;
  no_conflict_timeouts cl

(* The classic upgrade deadlock: both transactions take the shared lock,
   then both try to write the same key. Neither upgrade can proceed while
   the other's shared grip exists, so wound-wait must break the cycle —
   the older upgrades in place, the wounded younger retries and commits. *)
let test_upgrade_deadlock_wound_wait () =
  let cl, mgr = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "0"));
      let t0 = Sim.now sim in
      let upgrader name =
        Proc.async sim (fun () ->
            Txn.run mgr ~gateway:gw (fun t ->
                ignore (Txn.get_for_share t "k");
                Proc.sleep sim 200_000;
                Txn.put t "k" name))
      in
      let a = upgrader "a" in
      Proc.sleep sim 1_000;
      let b = upgrader "b" in
      List.iter (fun r -> expect_ok (Proc.await r)) [ a; b ];
      let elapsed = Sim.now sim - t0 in
      check Alcotest.bool
        (Printf.sprintf "upgrade deadlock broken fast (took %dus)" elapsed)
        true
        (elapsed < 8_000_000);
      (* Both writes committed: the final value is whichever upgraded last. *)
      match expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.get t "k")) with
      | Some ("a" | "b") -> ()
      | v ->
          Alcotest.failf "unexpected final value %s"
            (Option.value v ~default:"<none>"));
  (* The wound lands at the KV layer (the pusher wounds the younger's
     record and cleans its shared grip); the younger's attempt then dies on
     the commit-time refresh, so the coordinator counts a restart. *)
  check Alcotest.bool "the younger was wounded" true
    (Events.count (Obs.events (Cluster.obs cl)) Events.Wound >= 1);
  check Alcotest.bool "the loser restarted and recommitted" true
    ((Txn.stats mgr).Txn.restarts >= 1);
  no_conflict_timeouts cl

(* A FOR UPDATE lock is exclusive: a concurrent writer queues behind it for
   the whole hold instead of sneaking its intent in. *)
let test_for_update_blocks_writer () =
  let cl, mgr = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "v0"));
      let writer_done = ref false in
      let holder =
        Proc.async sim (fun () ->
            Txn.run mgr ~gateway:gw (fun t ->
                ignore (Txn.get_for_update t "k");
                Proc.sleep sim 500_000;
                check Alcotest.bool "writer still queued behind FOR UPDATE"
                  false !writer_done))
      in
      Proc.sleep sim 50_000;
      let writer =
        Proc.async sim (fun () ->
            let r = Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "w") in
            writer_done := true;
            r)
      in
      List.iter (fun r -> expect_ok (Proc.await r)) [ holder; writer ];
      check Alcotest.bool "writer finished after release" true !writer_done);
  no_conflict_timeouts cl

(* ------------------------------------------------------------------ *)
(* API surface                                                         *)

let test_options_roundtrip () =
  let _, mgr = make () in
  check Alcotest.bool "defaults" true (Txn.options mgr = Txn.Options.default);
  Txn.set_options mgr
    { Txn.Options.default with Txn.Options.pipelined_writes = false };
  check Alcotest.bool "set_options applied" false
    (Txn.options mgr).Txn.Options.pipelined_writes;
  (* Single-field tweaks go through read-modify-write record updates. *)
  Txn.set_options mgr
    { (Txn.options mgr) with Txn.Options.parallel_commits = false };
  let o = Txn.options mgr in
  check Alcotest.bool "update set its field" false o.Txn.Options.parallel_commits;
  check Alcotest.bool "update preserved others" false
    o.Txn.Options.pipelined_writes;
  Txn.set_options mgr
    { (Txn.options mgr) with Txn.Options.pipelined_writes = true };
  let o = Txn.options mgr in
  check Alcotest.bool "updates compose" true
    (o.Txn.Options.pipelined_writes && not o.Txn.Options.parallel_commits)

let test_config_default_idiom () =
  let cfg = { Cluster.default with Cluster.push_delay = 50_000; seed = 7 } in
  check Alcotest.int "override applied" 50_000 cfg.Cluster.push_delay;
  check Alcotest.int "other fields inherited" Cluster.default.Cluster.max_offset
    cfg.Cluster.max_offset;
  (* A faster push delay breaks the two-txn deadlock proportionally
     sooner. *)
  let cl, _ =
    Crdb.kv_cluster ~config:cfg ~regions:regions5 ~home
      ~survival:Zoneconfig.Zone
      ~ranges:[ (("a", "zzzz"), Cluster.Lag 3_000_000) ]
      ()
  in
  let mgr = Txn.create_manager cl in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let body first second name t =
        Txn.put t first (name ^ "1");
        Proc.sleep sim 300_000;
        Txn.put t second (name ^ "2")
      in
      let a = Proc.async sim (fun () -> Txn.run mgr ~gateway:gw (body "ka" "kb" "t1")) in
      let b = Proc.async sim (fun () -> Txn.run mgr ~gateway:gw (body "kb" "ka" "t2")) in
      List.iter (fun r -> expect_ok (Proc.await r)) [ a; b ]);
  no_conflict_timeouts cl

let suite =
  [
    Alcotest.test_case "two-txn deadlock wounds and commits" `Quick
      test_two_txn_deadlock;
    Alcotest.test_case "three-txn cycle across two ranges" `Quick
      test_three_txn_cycle_two_ranges;
    Alcotest.test_case "older transaction always survives" `Quick
      test_older_wins;
    Alcotest.test_case "abandoned registered txn cleaned up" `Quick
      test_abandoned_registered_txn;
    Alcotest.test_case "recordless writer cleaned up after grace" `Quick
      test_abandoned_recordless_txn;
    Alcotest.test_case "committed record resolves orphan intent" `Quick
      test_committed_record_resolves_intent;
    Alcotest.test_case "shared locks are mutually compatible" `Quick
      test_shared_shared_compatible;
    Alcotest.test_case "upgrade deadlock resolved by wound-wait" `Quick
      test_upgrade_deadlock_wound_wait;
    Alcotest.test_case "FOR UPDATE blocks concurrent writers" `Quick
      test_for_update_blocks_writer;
    Alcotest.test_case "Txn.Options round trip" `Quick test_options_roundtrip;
    Alcotest.test_case "Cluster.default with-idiom" `Quick
      test_config_default_idiom;
  ]
