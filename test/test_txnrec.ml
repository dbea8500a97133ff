(* Tests for range-anchored transaction records and parallel-commit status
   recovery: the replicated record state machine (first-decision-wins),
   records following their anchor key through splits and merges, heartbeat
   liveness through the routed RPC path, push verdicts against STAGING
   records, QueryIntent prevention, and the commit-vs-wound race decided by
   anchor-range log order. *)

module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Ts = Crdb_hlc.Timestamp
module Zoneconfig = Crdb_kv.Zoneconfig
module Cluster = Crdb_kv.Cluster
module Txnrec = Crdb_kv.Txnrec
module Transport = Crdb_net.Transport
module Txn = Crdb_txn.Txn
module Crdb = Crdb_core.Crdb
module Obs = Crdb_obs.Obs
module Metrics = Crdb_obs.Metrics
module Events = Crdb_obs.Events
open Support

let check = Alcotest.check
let regions5 = Latency.table1_regions
let home = "us-east1"

let make ?config ?(two_ranges = false) () =
  let spans =
    if two_ranges then [ ("a", "m"); ("m", "zzzz") ] else [ ("a", "zzzz") ]
  in
  let cl, _ =
    Crdb.kv_cluster ?config ~regions:regions5 ~home ~survival:Zoneconfig.Zone
      ~ranges:(List.map (fun span -> (span, Cluster.Lag)) spans)
      ()
  in
  cl

let no_conflict_timeouts cl =
  check Alcotest.int "no conflict timeouts" 0
    (Metrics.total (Obs.metrics (Cluster.obs cl)) "kv.conflict_timeouts")

let write_ok ?pri ?anchor cl ~gateway ~txn ~key ~value =
  let ts = Cluster.now_ts cl gateway in
  match
    Cluster.write cl ?pri ?anchor ~gateway ~txn ~key ~value:(Some value) ~ts ()
  with
  | `Ok ts -> ts
  | `Wounded e | `Err e ->
      Alcotest.failf "write %s: %s" key e

let status_is cl ~gateway ~txn ~key expected msg =
  let got = Cluster.txn_status cl ~gateway ~txn ~key () in
  check Alcotest.bool msg true (expected got)

(* ------------------------------------------------------------------ *)
(* Pure state machine: first decision wins                             *)

let test_record_state_machine () =
  let t = Txnrec.create () in
  let pri = Ts.of_wall 5 in
  let cts = Ts.of_wall 10 in
  (* Commit beats a late recovery-abort. *)
  Txnrec.apply t ~txn:1 ~key:"a" (Txnrec.U_register { pri; hb = 0 });
  (match Txnrec.status t ~txn:1 with
  | Some Txnrec.Pending -> ()
  | _ -> Alcotest.fail "register must create Pending");
  Txnrec.apply t ~txn:1 ~key:"a"
    (Txnrec.U_stage { pri; ts = cts; inflight = [ "a"; "b" ]; hb = 1 });
  (match Txnrec.status t ~txn:1 with
  | Some (Txnrec.Staging { inflight; _ }) ->
      check Alcotest.int "inflight declared" 2 (List.length inflight)
  | _ -> Alcotest.fail "stage must move to Staging");
  Txnrec.apply t ~txn:1 ~key:"a" (Txnrec.U_commit { ts = cts });
  Txnrec.apply t ~txn:1 ~key:"a" (Txnrec.U_recover_abort { reason = "late" });
  (match Txnrec.status t ~txn:1 with
  | Some (Txnrec.Committed ts) ->
      check Alcotest.bool "commit ts kept" true (Ts.equal ts cts)
  | _ -> Alcotest.fail "commit decision must be terminal");
  (* Recovery-abort beats a late commit. *)
  Txnrec.apply t ~txn:2 ~key:"b"
    (Txnrec.U_stage { pri; ts = cts; inflight = [ "b" ]; hb = 0 });
  Txnrec.apply t ~txn:2 ~key:"b" (Txnrec.U_recover_abort { reason = "lost" });
  Txnrec.apply t ~txn:2 ~key:"b" (Txnrec.U_commit { ts = cts });
  (match Txnrec.status t ~txn:2 with
  | Some (Txnrec.Aborted { wound = true; _ }) -> ()
  | _ -> Alcotest.fail "recovery abort must be terminal");
  (* A Staging record can no longer be wounded. *)
  Txnrec.apply t ~txn:3 ~key:"c"
    (Txnrec.U_stage { pri; ts = cts; inflight = []; hb = 0 });
  Txnrec.apply t ~txn:3 ~key:"c" (Txnrec.U_wound { reason = "older" });
  (match Txnrec.status t ~txn:3 with
  | Some (Txnrec.Staging _) -> ()
  | _ -> Alcotest.fail "wound must not touch Staging");
  (* Abandonment re-checks staleness at apply time. *)
  Txnrec.apply t ~txn:4 ~key:"d" (Txnrec.U_register { pri; hb = 10 });
  Txnrec.apply t ~txn:4 ~key:"d" (Txnrec.U_heartbeat { hb = 20 });
  Txnrec.apply t ~txn:4 ~key:"d"
    (Txnrec.U_abandon { reason = "stale"; if_hb_before = 15 });
  (match Txnrec.status t ~txn:4 with
  | Some Txnrec.Pending -> ()
  | _ -> Alcotest.fail "heartbeat that raced ahead must win");
  Txnrec.apply t ~txn:4 ~key:"d"
    (Txnrec.U_abandon { reason = "stale"; if_hb_before = 25 });
  match Txnrec.status t ~txn:4 with
  | Some (Txnrec.Aborted { wound = false; _ }) -> ()
  | _ -> Alcotest.fail "stale record must abandon"

(* ------------------------------------------------------------------ *)
(* Records ride their anchor key through the range lifecycle           *)

let test_record_follows_split () =
  let cl = make () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let pri = Cluster.now_ts cl gw in
      ignore (write_ok cl ~pri ~anchor:"x" ~gateway:gw ~txn:1 ~key:"x" ~value:"v");
      status_is cl ~gateway:gw ~txn:1 ~key:"x"
        (function Some Txnrec.Pending -> true | _ -> false)
        "record registered at anchor");
  let rid = Cluster.range_of_key cl "a" in
  (match Cluster.split_range cl rid ~at:"m" with
  | Some _ -> ()
  | None -> Alcotest.fail "split failed");
  Cluster.settle cl;
  check Alcotest.bool "anchor moved right" true
    (Cluster.range_of_key cl "x" <> rid);
  Cluster.run cl (fun () ->
      (* Status and heartbeat RPCs route by anchor key and find the record
         in the right-hand range. *)
      status_is cl ~gateway:gw ~txn:1 ~key:"x"
        (function Some Txnrec.Pending -> true | _ -> false)
        "record followed the split";
      (match
         Cluster.txn_update cl ~gateway:gw ~name:"kv.txn_heartbeat" ~txn:1
           ~key:"x"
           (Txnrec.U_heartbeat { hb = Sim.now (Cluster.sim cl) })
       with
      | Some Txnrec.Pending -> ()
      | _ -> Alcotest.fail "heartbeat must reach the moved record");
      (* The left-hand range no longer knows the transaction. *)
      status_is cl ~gateway:gw ~txn:1 ~key:"b"
        (function None -> true | _ -> false)
        "left range has no record")

let test_record_survives_merge () =
  let cl = make ~two_ranges:true () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let pri = Cluster.now_ts cl gw in
      ignore (write_ok cl ~pri ~anchor:"x" ~gateway:gw ~txn:1 ~key:"x" ~value:"v"));
  let left = Cluster.range_of_key cl "a" in
  check Alcotest.bool "merge succeeded" true (Cluster.merge_range cl left);
  Cluster.settle cl;
  check Alcotest.int "one range" left (Cluster.range_of_key cl "x");
  Cluster.run cl (fun () ->
      status_is cl ~gateway:gw ~txn:1 ~key:"x"
        (function Some Txnrec.Pending -> true | _ -> false)
        "record absorbed by the left range";
      match
        Cluster.txn_update cl ~gateway:gw ~name:"kv.txn_commit" ~txn:1 ~key:"x"
          (Txnrec.U_commit { ts = Cluster.now_ts cl gw })
      with
      | Some (Txnrec.Committed _) -> ()
      | _ -> Alcotest.fail "commit must reach the absorbed record")

(* ------------------------------------------------------------------ *)
(* Heartbeats through the RPC path: liveness and abandonment           *)

let test_heartbeat_rpc_keeps_record_live () =
  let cl = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  let interval = Cluster.txn_heartbeat_interval in
  Cluster.run cl (fun () ->
      let pri1 = Cluster.now_ts cl gw in
      ignore (write_ok cl ~pri:pri1 ~anchor:"k" ~gateway:gw ~txn:1 ~key:"k"
                ~value:"held");
      (* Coordinator heartbeats for 3 intervals, then stops. *)
      Proc.spawn sim (fun () ->
          for _ = 1 to 3 do
            Proc.sleep sim interval;
            ignore
              (Cluster.txn_update cl ~gateway:gw ~name:"kv.txn_heartbeat" ~txn:1
                 ~key:"k"
                 (Txnrec.U_heartbeat { hb = Sim.now sim })
                : Txnrec.status option)
          done);
      Proc.sleep sim 1_000;
      let pri2 = Cluster.now_ts cl gw in
      let young_done = ref false in
      Proc.spawn sim (fun () ->
          ignore
            (write_ok cl ~pri:pri2 ~anchor:"k" ~gateway:gw ~txn:2 ~key:"k"
               ~value:"young");
          young_done := true);
      (* While heartbeats flow the record is live: the younger writer stays
         parked past the bare liveness window. *)
      Proc.sleep sim (4 * interval);
      check Alcotest.bool "younger parked while heartbeats flow" false
        !young_done;
      status_is cl ~gateway:gw ~txn:1 ~key:"k"
        (function Some Txnrec.Pending -> true | _ -> false)
        "record still pending";
      (* Heartbeats stopped after 3 intervals: staleness is measured from
         the last one, and the pusher abandons the record. *)
      Proc.sleep sim (4 * interval);
      check Alcotest.bool "abandoned after heartbeats stop" true !young_done;
      status_is cl ~gateway:gw ~txn:1 ~key:"k"
        (function
          | Some (Txnrec.Aborted { wound = false; _ }) -> true | _ -> false)
        "record abandoned, not wounded");
  no_conflict_timeouts cl

(* ------------------------------------------------------------------ *)
(* Push verdicts against STAGING records                               *)

(* A fresh STAGING record is never wounded, even by an older pusher: its
   fate belongs to status recovery. The older transaction waits and gets
   through via cleanup once the coordinator finishes the commit. *)
let test_staging_not_wounded () =
  let cl = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let pri_old = Cluster.now_ts cl gw in
      Proc.sleep sim 1_000;
      let pri_young = Cluster.now_ts cl gw in
      let ts =
        write_ok cl ~pri:pri_young ~anchor:"k" ~gateway:gw ~txn:2 ~key:"k"
          ~value:"staged"
      in
      (match
         Cluster.txn_update cl ~gateway:gw ~name:"kv.txn_stage" ~txn:2 ~key:"k"
           (Txnrec.U_stage
              { pri = pri_young; ts; inflight = []; hb = Sim.now sim })
       with
      | Some (Txnrec.Staging _) -> ()
      | _ -> Alcotest.fail "stage must apply");
      let old_done = ref false in
      Proc.spawn sim (fun () ->
          ignore
            (write_ok cl ~pri:pri_old ~anchor:"k" ~gateway:gw ~txn:1 ~key:"k"
               ~value:"old");
          old_done := true);
      Proc.sleep sim 1_000_000;
      check Alcotest.bool "older pusher waits on fresh STAGING" false !old_done;
      status_is cl ~gateway:gw ~txn:2 ~key:"k"
        (function Some (Txnrec.Staging _) -> true | _ -> false)
        "staging record not wounded";
      (* Coordinator finishes: explicit commit, then the pusher cleans up
         the committed intent on its own. *)
      (match
         Cluster.txn_update cl ~gateway:gw ~name:"kv.txn_commit" ~txn:2 ~key:"k"
           (Txnrec.U_commit { ts })
       with
      | Some (Txnrec.Committed _) -> ()
      | _ -> Alcotest.fail "explicit commit must apply");
      Proc.sleep sim 1_000_000;
      check Alcotest.bool "older got through after commit" true !old_done);
  check Alcotest.int "no wounds" 0
    (Events.count (Obs.events (Cluster.obs cl)) Events.Wound);
  no_conflict_timeouts cl

(* Gateway dies between staging and the final intent's replication, but
   every declared write did land: recovery must conclude COMMITTED. *)
let test_recovery_commits_complete_staging () =
  let cl = make ~two_ranges:true () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let pri = Cluster.now_ts cl gw in
      ignore (write_ok cl ~pri ~anchor:"b" ~gateway:gw ~txn:5 ~key:"b" ~value:"v1");
      let ts = write_ok cl ~pri ~anchor:"b" ~gateway:gw ~txn:5 ~key:"n" ~value:"v2" in
      (match
         Cluster.txn_update cl ~gateway:gw ~name:"kv.txn_stage" ~txn:5 ~key:"b"
           (Txnrec.U_stage
              { pri; ts; inflight = [ "b"; "n" ]; hb = Sim.now sim })
       with
      | Some (Txnrec.Staging _) -> ()
      | _ -> Alcotest.fail "stage must apply");
      (* Coordinator silence from here on: no heartbeat, no explicit
         commit. A reader blocked on the intent runs status recovery once
         the record goes stale, probes both declared keys, finds both
         replicated, and finalizes COMMITTED. *)
      Proc.sleep sim 10_000;
      let read_ts = Cluster.now_ts cl gw in
      (match
         Cluster.read cl ~gateway:gw ~txn:None ~key:"n" ~ts:read_ts
           ~max_ts:read_ts ()
       with
      | `Ok (value, _) ->
          check Alcotest.(option string) "recovered to COMMITTED" (Some "v2")
            value
      | _ -> Alcotest.fail "reader must see the recovered value");
      status_is cl ~gateway:gw ~txn:5 ~key:"b"
        (function Some (Txnrec.Committed _) -> true | _ -> false)
        "record finalized Committed");
  no_conflict_timeouts cl

(* Same crash, but one declared write never replicated: recovery must
   conclude ABORTED, and the prevention left behind by QueryIntent keeps
   the missing write from ever applying later. *)
let test_recovery_aborts_incomplete_staging () =
  let cl = make ~two_ranges:true () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let pri = Cluster.now_ts cl gw in
      let ts = write_ok cl ~pri ~anchor:"b" ~gateway:gw ~txn:6 ~key:"b" ~value:"v1" in
      (* Declare a second in-flight write that never happened. *)
      (match
         Cluster.txn_update cl ~gateway:gw ~name:"kv.txn_stage" ~txn:6 ~key:"b"
           (Txnrec.U_stage
              { pri; ts; inflight = [ "b"; "n" ]; hb = Sim.now sim })
       with
      | Some (Txnrec.Staging _) -> ()
      | _ -> Alcotest.fail "stage must apply");
      Proc.sleep sim 10_000;
      let read_ts = Cluster.now_ts cl gw in
      (match
         Cluster.read cl ~gateway:gw ~txn:None ~key:"b" ~ts:read_ts
           ~max_ts:read_ts ()
       with
      | `Ok (value, _) ->
          check Alcotest.(option string) "aborted txn left nothing" None value
      | _ -> Alcotest.fail "reader must get a value after recovery");
      status_is cl ~gateway:gw ~txn:6 ~key:"b"
        (function
          | Some (Txnrec.Aborted { wound = true; _ }) -> true | _ -> false)
        "record finalized Aborted by recovery";
      (* The declared-but-missing write arrives late (the pipelined
         proposal finally lands): prevention must reject it. *)
      match
        Cluster.write cl ~pri ~anchor:"b" ~gateway:gw ~txn:6 ~key:"n"
          ~value:(Some "late") ~ts ()
      with
      | `Err _ -> ()
      | `Ok _ -> Alcotest.fail "prevented write must not apply"
      | `Wounded _ -> Alcotest.fail "expected prevention error");
  no_conflict_timeouts cl

(* QueryIntent itself: Found for a replicated intent at the queried
   timestamp, Missing (with prevention) for an absent one. *)
let test_query_intent_verdicts () =
  let cl = make () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let pri = Cluster.now_ts cl gw in
      let ts = write_ok cl ~pri ~anchor:"k" ~gateway:gw ~txn:7 ~key:"k" ~value:"v" in
      (match Cluster.query_intent cl ~gateway:gw ~txn:7 ~key:"k" ~ts () with
      | `Found -> ()
      | `Missing | `Unknown -> Alcotest.fail "replicated intent must be Found");
      match Cluster.query_intent cl ~gateway:gw ~txn:7 ~key:"q" ~ts () with
      | `Missing -> ()
      | `Found | `Unknown -> Alcotest.fail "absent intent must be Missing")

(* A prevention whose proposal is discarded proves nothing. The
   leaseholder proposes it, a partition cuts its region off from the other
   voters, they elect a leader of their own, and the healed partition
   truncates the old leader's uncommitted entry. The probe must answer
   Unknown: Found would let recovery commit a transaction whose declared
   write never applied. *)
let test_query_intent_discarded_is_unknown () =
  let cl, rids =
    Crdb.kv_cluster ~regions:regions5 ~home ~survival:Zoneconfig.Region
      ~ranges:[ (("a", "zzzz"), Cluster.Lag) ]
      ()
  in
  let sim = Cluster.sim cl and net = Cluster.net cl in
  let lh = Option.get (Cluster.leaseholder cl (List.hd rids)) in
  check Alcotest.string "the lease starts at home" home
    (Topology.region_of (Cluster.topology cl) lh);
  Cluster.run cl (fun () ->
      let ts = Cluster.now_ts cl lh in
      List.iter
        (fun region ->
          if region <> home then Transport.partition_regions net home region)
        regions5;
      Sim.schedule sim ~after:4_000_000 (fun () ->
          Transport.heal_partitions net);
      let t0 = Sim.now sim in
      match Cluster.query_intent cl ~gateway:lh ~txn:7 ~key:"q" ~ts () with
      | `Unknown ->
          (* The discard answered, not the proposer's timeout. *)
          check Alcotest.bool "answered before the proposal timeout" true
            (Sim.now sim - t0 < Cluster.propose_timeout)
      | `Found -> Alcotest.fail "a discarded prevention answered Found"
      | `Missing -> Alcotest.fail "a discarded prevention answered Missing")

(* ------------------------------------------------------------------ *)
(* Commit races wound: the anchor range's log decides                  *)

(* A coordinator committing and an older pusher wounding propose into the
   same anchor-range Raft log at (nearly) the same instant. Whichever
   applies first must win, both observers must agree with the applied
   record, and the intent's final state must match the verdict. Swept over
   several offsets around the push delay to land on both sides of the
   race. *)
let test_commit_vs_wound_race () =
  let outcomes = ref [] in
  List.iter
    (fun commit_after ->
      let cl = make () in
      let sim = Cluster.sim cl in
      let gw = node_in cl home 0 in
      Cluster.run cl (fun () ->
          let pri_old = Cluster.now_ts cl gw in
          Proc.sleep sim 1_000;
          let pri_young = Cluster.now_ts cl gw in
          let ts =
            write_ok cl ~pri:pri_young ~anchor:"k" ~gateway:gw ~txn:2 ~key:"k"
              ~value:"young"
          in
          (* The older transaction blocks and will propose U_wound one push
             delay after parking. *)
          let pusher =
            Proc.async sim (fun () ->
                Cluster.write cl ~pri:pri_old ~anchor:"k" ~gateway:gw ~txn:1
                  ~key:"k" ~value:(Some "old")
                  ~ts:(Cluster.now_ts cl gw) ())
          in
          Proc.sleep sim commit_after;
          let commit_view =
            Cluster.txn_update cl ~gateway:gw ~name:"kv.txn_commit" ~txn:2
              ~key:"k" (Txnrec.U_commit { ts })
          in
          (match Proc.await pusher with
          | `Ok _ -> ()
          | `Wounded e | `Err e ->
              Alcotest.failf "older writer must eventually win the key: %s" e);
          let final = Cluster.txn_status cl ~gateway:gw ~txn:2 ~key:"k" () in
          (match (commit_view, final) with
          | Some (Txnrec.Committed _), Some (Txnrec.Committed _) ->
              outcomes := `Commit_won :: !outcomes
          | Some (Txnrec.Aborted { wound = true; _ }),
            Some (Txnrec.Aborted { wound = true; _ }) ->
              outcomes := `Wound_won :: !outcomes
          | _ ->
              Alcotest.failf
                "coordinator and record disagree (commit_after=%dus)"
                commit_after);
          (* The key's history matches the verdict: a committed young value
             is visible below the old writer's timestamp iff commit won. *)
          let committed_young =
            match final with Some (Txnrec.Committed _) -> true | _ -> false
          in
          match
            Cluster.read cl ~gateway:gw ~txn:None ~key:"k" ~ts ~max_ts:ts ()
          with
          | `Ok (value, _) ->
              check
                Alcotest.(option string)
                (Printf.sprintf "value agrees with verdict (+%dus)" commit_after)
                (if committed_young then Some "young" else None)
                value
          | _ -> Alcotest.fail "read at commit ts must return"))
    [ 60_000; 90_000; 100_000; 110_000; 140_000 ];
  (* The sweep must actually exercise both orders of the race. *)
  check Alcotest.bool "commit won at least once" true
    (List.mem `Commit_won !outcomes);
  check Alcotest.bool "wound won at least once" true
    (List.mem `Wound_won !outcomes)

(* ------------------------------------------------------------------ *)
(* The coordinator's STAGING event                                     *)

(* The coordinator logs [Txn_staged] once per attempt whose STAGING record
   applied: once for an uncontended parallel commit, and not at all for an
   attempt whose stage lost to a wound (its retry then logs its own). *)
let test_staged_event_per_applied_stage () =
  let cl = make () in
  let mgr = Txn.create_manager cl in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  let events = Obs.events (Cluster.obs cl) in
  let staged txn =
    List.length
      (List.filter
         (fun e -> e.Events.txn = Some txn)
         (Events.of_kind events Events.Txn_staged))
  in
  let run_ok ids body =
    match
      Txn.run mgr ~gateway:gw (fun t ->
          ids := !ids @ [ Txn.txn_id t ];
          body t)
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "txn failed: %a" Txn.pp_error e
  in
  Cluster.run cl (fun () ->
      let solo = ref [] in
      run_ok solo (fun t ->
          Txn.put t "a" "1";
          Txn.put t "b" "2");
      check Alcotest.(list int) "one staged event for the lone attempt" [ 1 ]
        (List.map staged !solo);
      (* The older transaction starts first but writes "k" only after the
         younger one holds it; its push wounds the younger's Pending record
         while the younger still runs, so the younger's stage applies as a
         no-op on an Aborted record. *)
      let old_ids = ref [] and young_ids = ref [] in
      let old =
        Proc.async sim (fun () ->
            run_ok old_ids (fun t ->
                Proc.sleep sim 100_000;
                Txn.put t "k" "old"))
      in
      Proc.sleep sim 10_000;
      run_ok young_ids (fun t ->
          Txn.put t "k" "young";
          Proc.sleep sim 500_000);
      Proc.await old;
      (match !young_ids with
      | first :: _ ->
          status_is cl ~gateway:gw ~txn:first ~key:"k"
            (function
              | Some (Txnrec.Aborted { wound = true; _ }) -> true | _ -> false)
            "the younger's first attempt was wounded"
      | [] -> Alcotest.fail "no attempt ran");
      check Alcotest.(list int) "the wounded stage logs none, the retry one"
        [ 0; 1 ] (List.map staged !young_ids);
      check Alcotest.(list int) "the older commits with one" [ 1 ]
        (List.map staged !old_ids));
  no_conflict_timeouts cl

(* ------------------------------------------------------------------ *)
(* Tables share maps                                                   *)

(* A copy and an install share the source's map; a transition gives its
   table a new map and leaves the others as they were, and a no-op one
   keeps the map it had. *)
let test_tables_share_maps () =
  let pri = Ts.of_wall 1 in
  let hb t = Option.map (fun r -> r.Txnrec.tr_hb) (Txnrec.find t ~txn:1) in
  let t = Txnrec.create () in
  Txnrec.apply t ~txn:1 ~key:"a" (Txnrec.U_register { pri; hb = 0 });
  let c = Txnrec.copy t in
  check Alcotest.bool "a copy shares" true (Txnrec.shares c t);
  Txnrec.apply c ~txn:1 ~key:"a" (Txnrec.U_register { pri; hb = 9 });
  check Alcotest.bool "a no-op transition keeps sharing" true
    (Txnrec.shares c t);
  Txnrec.apply c ~txn:1 ~key:"a" (Txnrec.U_heartbeat { hb = 5 });
  check Alcotest.bool "a transition stops sharing" false (Txnrec.shares c t);
  check Alcotest.(option int) "the source is unchanged" (Some 0) (hb t);
  check Alcotest.(option int) "the copy moved" (Some 5) (hb c);
  let u = Txnrec.create () in
  Txnrec.replace_with u c;
  check Alcotest.bool "an install shares" true (Txnrec.shares u c);
  Txnrec.apply u ~txn:1 ~key:"a" (Txnrec.U_wound { reason = "w" });
  check Alcotest.bool "the installed source is unchanged" true
    (Txnrec.status c ~txn:1 = Some Txnrec.Pending)

(* The table as it was before tables shared maps: mutable records in a
   [Hashtbl], deep-copied by every copy, install and merge. The oracle of
   the property below. *)
module Deep = struct
  type record = {
    id : int;
    key : string;
    pri : Ts.t;
    mutable status : Txnrec.status;
    mutable hb : int;
  }

  let create () : (int, record) Hashtbl.t = Hashtbl.create 8

  let ensure t ~txn ~key ~pri ~hb =
    match Hashtbl.find_opt t txn with
    | Some r -> r
    | None ->
        let r = { id = txn; key; pri; status = Txnrec.Pending; hb } in
        Hashtbl.replace t txn r;
        r

  let apply t ~txn ~key upd =
    let find () = Hashtbl.find_opt t txn in
    match (upd : Txnrec.update) with
    | U_register { pri; hb } -> ignore (ensure t ~txn ~key ~pri ~hb : record)
    | U_heartbeat { hb } -> (
        match find () with
        | Some ({ status = Pending | Staging _; _ } as r) -> r.hb <- max r.hb hb
        | Some _ | None -> ())
    | U_stage { pri; ts; inflight; hb } -> (
        let r = ensure t ~txn ~key ~pri ~hb in
        match r.status with
        | Pending | Staging _ ->
            r.status <- Staging { ts; inflight };
            r.hb <- max r.hb hb
        | Committed _ | Aborted _ -> ())
    | U_commit { ts } -> (
        match find () with
        | Some ({ status = Pending | Staging _; _ } as r) ->
            r.status <- Committed ts
        | Some _ -> ()
        | None ->
            (ensure t ~txn ~key ~pri:Ts.zero ~hb:0).status <- Committed ts)
    | U_wound { reason } -> (
        match find () with
        | Some ({ status = Pending; _ } as r) ->
            r.status <- Aborted { reason; wound = true }
        | Some _ | None -> ())
    | U_abandon { reason; if_hb_before } -> (
        match find () with
        | Some ({ status = Pending; _ } as r) when r.hb <= if_hb_before ->
            r.status <- Aborted { reason; wound = false }
        | Some _ | None -> ())
    | U_recover_abort { reason } -> (
        match find () with
        | Some ({ status = Staging _; _ } as r) ->
            r.status <- Aborted { reason; wound = true }
        | Some _ | None -> ())
    | U_coord_abort { reason } -> (
        let r = ensure t ~txn ~key ~pri:Ts.zero ~hb:0 in
        match r.status with
        | Pending | Staging _ -> r.status <- Aborted { reason; wound = false }
        | Committed _ | Aborted _ -> ())

  let add_copies t src =
    Hashtbl.iter (fun id r -> Hashtbl.replace t id { r with id }) src

  let copy src =
    let t = create () in
    add_copies t src;
    t

  let replace_with t src =
    Hashtbl.reset t;
    add_copies t src

  let split_off t ~at =
    let right = create () in
    Hashtbl.iter (fun id r -> if r.key >= at then Hashtbl.replace right id r) t;
    Hashtbl.iter (fun id _ -> Hashtbl.remove t id) right;
    right

  let absorb t ~from = add_copies t from

  let find t ~txn =
    Option.map
      (fun r -> (r.id, r.key, r.pri, r.status, r.hb))
      (Hashtbl.find_opt t txn)
end

type table_op =
  | Apply of int * int * Txnrec.update
  | Copy of int * int
  | Replace_with of int * int
  | Split_off of int * int * string
  | Absorb of int * int

let table_keys = [| "a"; "b"; "c"; "d"; "e" |]
let table_txns = List.init 6 (fun i -> i + 1)
let table_anchor txn = table_keys.(txn mod Array.length table_keys)

let pp_table_op = function
  | Apply (t, txn, upd) ->
      Printf.sprintf "apply(%d, t%d, %s)" t txn (Test_kv.pp_update upd)
  | Copy (d, s) -> Printf.sprintf "copy(%d <- %d)" d s
  | Replace_with (d, s) -> Printf.sprintf "replace_with(%d <- %d)" d s
  | Split_off (d, s, at) -> Printf.sprintf "split_off(%d <- %d @ %s)" d s at
  | Absorb (d, s) -> Printf.sprintf "absorb(%d <- %d)" d s

(* Three tables take random transitions and random copies, installs,
   splits and merges between them; after every step each table holds the
   records of the deep-copying oracle's. A transition that changed a map
   another table shares shows here as one table's update appearing in
   another. *)
let prop_tables_match_deep_copies =
  let pool = 3 in
  let table = QCheck.Gen.int_bound (pool - 1) in
  let two_tables =
    QCheck.Gen.(
      table >>= fun d ->
      map (fun s -> (d, (d + 1 + s) mod pool)) (int_bound (pool - 2)))
  in
  let upd =
    QCheck.Gen.(
      let* w = int_range 1 10 and* hb = int_range 0 10 in
      let ts = Ts.of_wall w in
      oneofl
        Txnrec.
          [
            U_register { pri = ts; hb };
            U_heartbeat { hb };
            U_stage { pri = ts; ts; inflight = [ "a" ]; hb };
            U_commit { ts };
            U_wound { reason = "w" };
            U_abandon { reason = "a"; if_hb_before = hb };
            U_recover_abort { reason = "r" };
            U_coord_abort { reason = "c" };
          ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 8,
            map2
              (fun (t, txn) upd -> Apply (t, txn, upd))
              (pair table (oneofl table_txns)) upd );
          (2, map (fun (d, s) -> Copy (d, s)) two_tables);
          (2, map (fun (d, s) -> Replace_with (d, s)) two_tables);
          ( 2,
            map2
              (fun (d, s) at -> Split_off (d, s, at))
              two_tables (oneofl [ "a"; "b"; "bb"; "c"; "e"; "f" ]) );
          (2, map (fun (d, s) -> Absorb (d, s)) two_tables);
        ])
  in
  let print ops = String.concat " " (List.map pp_table_op ops) in
  QCheck.Test.make ~name:"record tables match deep copies" ~count:300
    (QCheck.make ~print QCheck.Gen.(list_size (int_bound 40) op))
    (fun ops ->
      let ts = Array.init pool (fun _ -> Txnrec.create ())
      and os = Array.init pool (fun _ -> Deep.create ()) in
      let same i =
        List.for_all
          (fun txn ->
            Option.map
              (fun r ->
                Txnrec.(r.tr_id, r.tr_key, r.tr_pri, r.tr_status, r.tr_hb))
              (Txnrec.find ts.(i) ~txn)
            = Deep.find os.(i) ~txn)
          table_txns
      in
      List.for_all
        (fun op ->
          (match op with
          | Apply (t, txn, upd) ->
              let key = table_anchor txn in
              Txnrec.apply ts.(t) ~txn ~key upd;
              Deep.apply os.(t) ~txn ~key upd
          | Copy (d, s) ->
              ts.(d) <- Txnrec.copy ts.(s);
              os.(d) <- Deep.copy os.(s)
          | Replace_with (d, s) ->
              Txnrec.replace_with ts.(d) ts.(s);
              Deep.replace_with os.(d) os.(s)
          | Split_off (d, s, at) ->
              ts.(d) <- Txnrec.split_off ts.(s) ~at;
              os.(d) <- Deep.split_off os.(s) ~at
          | Absorb (d, s) ->
              Txnrec.absorb ts.(d) ~from:ts.(s);
              Deep.absorb os.(d) ~from:os.(s));
          List.for_all same (List.init pool Fun.id))
        ops)

let suite =
  [
    Alcotest.test_case "record state machine, first decision wins" `Quick
      test_record_state_machine;
    Alcotest.test_case "record follows its anchor through a split" `Quick
      test_record_follows_split;
    Alcotest.test_case "record survives a merge" `Quick
      test_record_survives_merge;
    Alcotest.test_case "heartbeat RPCs keep the record live" `Quick
      test_heartbeat_rpc_keeps_record_live;
    Alcotest.test_case "fresh STAGING is never wounded" `Quick
      test_staging_not_wounded;
    Alcotest.test_case "recovery commits a complete staging" `Quick
      test_recovery_commits_complete_staging;
    Alcotest.test_case "recovery aborts an incomplete staging" `Quick
      test_recovery_aborts_incomplete_staging;
    Alcotest.test_case "query intent verdicts" `Quick
      test_query_intent_verdicts;
    Alcotest.test_case "discarded prevention answers Unknown" `Quick
      test_query_intent_discarded_is_unknown;
    Alcotest.test_case "commit vs wound decided by log order" `Quick
      test_commit_vs_wound_race;
    Alcotest.test_case "one staged event per applied stage" `Quick
      test_staged_event_per_applied_stage;
    Alcotest.test_case "tables share maps" `Quick test_tables_share_maps;
    QCheck_alcotest.to_alcotest prop_tables_match_deep_copies;
  ]
