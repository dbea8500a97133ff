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
module Crdb = Crdb_core.Crdb
module Obs = Crdb_obs.Obs
module Metrics = Crdb_obs.Metrics
module Events = Crdb_obs.Events

let check = Alcotest.check
let regions5 = Latency.table1_regions
let home = "us-east1"

let make ?config ?(two_ranges = false) () =
  let spans =
    if two_ranges then [ ("a", "m"); ("m", "zzzz") ] else [ ("a", "zzzz") ]
  in
  let cl, _ =
    Crdb.kv_cluster ?config ~regions:regions5 ~home ~survival:Zoneconfig.Zone
      ~ranges:(List.map (fun span -> (span, Cluster.Lag 3_000_000)) spans)
      ()
  in
  cl

let node_in cl region i =
  Topology.gateway (Cluster.topology cl) ~region ~index:i ()

let no_conflict_timeouts cl =
  check Alcotest.int "no conflict timeouts" 0
    (Metrics.total (Obs.metrics (Cluster.obs cl)) "kv.conflict_timeouts")

let write_ok ?pri ?anchor cl ~gateway ~txn ~key ~value =
  let ts = Cluster.now_ts cl gateway in
  match
    Cluster.write cl ?pri ?anchor ~gateway ~txn ~key ~value:(Some value) ~ts ()
  with
  | Cluster.Write_ok ts -> ts
  | Cluster.Write_wounded e | Cluster.Write_err e ->
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
      (match Cluster.heartbeat_txn cl ~gateway:gw ~txn:1 ~key:"x" () with
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
      match Cluster.commit_txn cl ~gateway:gw ~txn:1 ~key:"x"
              ~ts:(Cluster.now_ts cl gw) () with
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
              (Cluster.heartbeat_txn cl ~gateway:gw ~txn:1 ~key:"k" ()
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
         Cluster.stage_txn cl ~gateway:gw ~txn:2 ~key:"k" ~pri:pri_young ~ts
           ~inflight:[] ()
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
      (match Cluster.commit_txn cl ~gateway:gw ~txn:2 ~key:"k" ~ts () with
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
         Cluster.stage_txn cl ~gateway:gw ~txn:5 ~key:"b" ~pri ~ts
           ~inflight:[ "b"; "n" ] ()
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
      | Cluster.Read_value { value; _ } ->
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
         Cluster.stage_txn cl ~gateway:gw ~txn:6 ~key:"b" ~pri ~ts
           ~inflight:[ "b"; "n" ] ()
       with
      | Some (Txnrec.Staging _) -> ()
      | _ -> Alcotest.fail "stage must apply");
      Proc.sleep sim 10_000;
      let read_ts = Cluster.now_ts cl gw in
      (match
         Cluster.read cl ~gateway:gw ~txn:None ~key:"b" ~ts:read_ts
           ~max_ts:read_ts ()
       with
      | Cluster.Read_value { value; _ } ->
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
      | Cluster.Write_err _ -> ()
      | Cluster.Write_ok _ -> Alcotest.fail "prevented write must not apply"
      | Cluster.Write_wounded _ -> Alcotest.fail "expected prevention error");
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
          let commit_view = Cluster.commit_txn cl ~gateway:gw ~txn:2 ~key:"k" ~ts () in
          (match Proc.await pusher with
          | Cluster.Write_ok _ -> ()
          | Cluster.Write_wounded e | Cluster.Write_err e ->
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
          | Cluster.Read_value { value; _ } ->
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
    Alcotest.test_case "commit vs wound decided by log order" `Quick
      test_commit_vs_wound_race;
  ]
