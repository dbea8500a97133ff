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
module Lock_table = Crdb_kv.Lock_table
module Txnrec = Crdb_kv.Txnrec
module Txn = Crdb_txn.Txn
module Crdb = Crdb_core.Crdb
module Obs = Crdb_obs.Obs
module Metrics = Crdb_obs.Metrics
module Events = Crdb_obs.Events
open Support

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
      ~ranges:(List.map (fun span -> (span, Cluster.Lag)) spans)
      ()
  in
  (cl, Txn.create_manager cl)

let total cl name = Metrics.total (Obs.metrics (Cluster.obs cl)) name

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
  | `Ok ts -> ts
  | `Wounded e | `Err e ->
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
  check Alcotest.bool "at least one wound" true (total cl "txn.wounds" >= 1);
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
  check Alcotest.bool "at least one wound" true (total cl "txn.wounds" >= 1);
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
      Cluster.resolve cl ~gateway:gw ~txn:1 ~commit:(Some ts) ~keys:[ "k" ] ();
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
      Cluster.resolve cl ~gateway:gw ~txn:4 ~commit:(Some held)
        ~keys:[ "k2" ] ();
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
      (match
         Cluster.txn_update cl ~gateway:gw ~name:"kv.txn_commit" ~txn:10
           ~key:"k" (Txnrec.U_commit { ts })
       with
      | Some (Txnrec.Committed _) -> ()
      | _ -> Alcotest.fail "the commit must land Committed");
      (* No resolve: a non-transactional reader hits the intent, pushes,
         learns the record committed, and finishes the resolution itself. *)
      Proc.sleep sim 10_000;
      let t0 = Sim.now sim in
      let read_ts = Cluster.now_ts cl gw in
      (match
         Cluster.read cl ~gateway:gw ~txn:None ~key:"k" ~ts:read_ts
           ~max_ts:read_ts ()
       with
      | `Ok (value, _) ->
          check Alcotest.(option string) "committed value visible"
            (Some "orphan") value
      | _ -> Alcotest.fail "reader must see the committed value");
      check Alcotest.bool "resolved within a few push delays" true
        (Sim.now sim - t0 < 1_000_000));
  no_conflict_timeouts cl

(* ------------------------------------------------------------------ *)
(* Lock table against a reference model                                *)

(* Operations on a pair of tables (a range and its right-hand neighbour):
   [Split_move] moves [tbl]'s keys [>= at] into the other table. *)
type lt_op =
  | Acquire of { tbl : int; key : string; txn : int; ts : int }
  | Release of { tbl : int; key : string; txn : int }
  | Split_move of { tbl : int; at : string }
  | Clear_locks of { tbl : int }

let lt_keys = [ "a"; "b"; "c"; "d"; "e" ]
let lt_txns = [ 1; 2; 3 ]

let pp_lt_op = function
  | Acquire { tbl; key; txn; ts } ->
      Printf.sprintf "acquire t%d %s txn%d @%d" tbl key txn ts
  | Release { tbl; key; txn } -> Printf.sprintf "release t%d %s txn%d" tbl key txn
  | Split_move { tbl; at } -> Printf.sprintf "split_move t%d at %s" tbl at
  | Clear_locks { tbl } -> Printf.sprintf "clear_locks t%d" tbl

let lt_op_gen =
  let open QCheck.Gen in
  let tbl = int_bound 1 and key = oneofl lt_keys and txn = oneofl lt_txns in
  frequency
    [
      ( 5,
        map4
          (fun tbl key txn ts -> Acquire { tbl; key; txn; ts })
          tbl key txn (int_range 1 3) );
      (4, map3 (fun tbl key txn -> Release { tbl; key; txn }) tbl key txn);
      (1, map2 (fun tbl at -> Split_move { tbl; at }) tbl key);
      (1, map (fun tbl -> Clear_locks { tbl }) tbl);
    ]

module Smap = Map.Make (String)

(* The model: each table maps a key to its holder and lock timestamp. The
   tables agree with it when every [foreign*] query does, at every
   timestamp the ops use. *)
let lt_agrees tables model =
  let blocking m ~key ~txn ~max_ts =
    match Smap.find_opt key m with
    | Some (h, ts) when Some h <> txn && ts <= max_ts -> Some h
    | Some _ | None -> None
  in
  let txns = None :: List.map Option.some lt_txns in
  let bounds = lt_keys @ [ "f" ] in
  List.for_all
    (fun i ->
      let t = tables.(i) and m = model.(i) in
      List.for_all
        (fun max_ts ->
          let ts = Ts.of_wall max_ts in
          List.for_all
            (fun txn ->
              List.for_all
                (fun key ->
                  Option.map Lock_table.holder
                    (Lock_table.foreign t ~key ~txn ~max_ts:ts)
                  = blocking m ~key ~txn ~max_ts)
                lt_keys
              && List.for_all
                   (fun start_key ->
                     List.for_all
                       (fun end_key ->
                         start_key >= end_key
                         ||
                         let in_span k = k >= start_key && k < end_key in
                         match
                           Lock_table.foreign_in_span t ~start_key ~end_key ~txn
                             ~max_ts:ts
                         with
                         | None ->
                             List.for_all
                               (fun key ->
                                 (not (in_span key))
                                 || blocking m ~key ~txn ~max_ts = None)
                               lt_keys
                         | Some (key, l) ->
                             in_span key
                             && blocking m ~key ~txn ~max_ts
                                = Some (Lock_table.holder l))
                       bounds)
                   bounds)
            txns)
        [ 0; 1; 2; 3 ]
      && List.for_all
           (fun txn ->
             List.for_all
               (fun key ->
                 Option.map Lock_table.holder
                   (Lock_table.foreign_for t ~key ~txn)
                 = blocking m ~key ~txn:(Some txn) ~max_ts:max_int)
               lt_keys)
           lt_txns)
    [ 0; 1 ]

let lt_step tables model op =
  let other i = 1 - i in
  match op with
  | Acquire { tbl; key; txn; ts } -> (
      match Smap.find_opt key model.(tbl) with
      | Some (h, _) when h <> txn -> true (* precondition: not taken *)
      | held ->
          let created =
            Lock_table.acquire tables.(tbl) ~key ~txn ~ts:(Ts.of_wall ts) ()
          in
          let ts = match held with Some (_, old) -> max old ts | None -> ts in
          model.(tbl) <- Smap.add key (txn, ts) model.(tbl);
          created = (held = None))
  | Release { tbl; key; txn } ->
      Lock_table.release tables.(tbl) ~key ~txn;
      (match Smap.find_opt key model.(tbl) with
      | Some (h, _) when h = txn -> model.(tbl) <- Smap.remove key model.(tbl)
      | Some _ | None -> ());
      true
  | Split_move { tbl; at } ->
      Lock_table.split_move tables.(tbl) ~into:tables.(other tbl) ~at;
      let moved, kept = Smap.partition (fun k _ -> k >= at) model.(tbl) in
      model.(tbl) <- kept;
      model.(other tbl) <- Smap.union (fun _ m _ -> Some m) moved model.(other tbl);
      true
  | Clear_locks { tbl } ->
      Lock_table.clear_locks tables.(tbl);
      model.(tbl) <- Smap.empty;
      true

(* Every step keeps the tables in step with the model: [acquire] reports
   whether it created the lock, a release by a non-holder leaves the
   holder's lock in place, and [foreign], [foreign_in_span] (against a
   per-key scan) and [foreign_for] answer as the model does. *)
let prop_lock_table_model =
  QCheck.Test.make ~name:"lock table agrees with a reference model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_lt_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) lt_op_gen))
    (fun ops ->
      let tables = [| Lock_table.create (); Lock_table.create () |] in
      let model = [| Smap.empty; Smap.empty |] in
      List.for_all
        (fun op -> lt_step tables model op && lt_agrees tables model)
        ops)

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
      ~ranges:[ (("a", "zzzz"), Cluster.Lag) ]
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
    QCheck_alcotest.to_alcotest prop_lock_table_model;
    Alcotest.test_case "Txn.Options round trip" `Quick test_options_roundtrip;
    Alcotest.test_case "Cluster.default with-idiom" `Quick
      test_config_default_idiom;
  ]
