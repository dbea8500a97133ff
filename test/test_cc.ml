(* Conflict fixtures for wound-wait concurrency control, driven through the
   public [Txn] API: opposite-order writers, read-your-writes and
   serialized read-modify-write increments. The teeth of the [No_refresh]
   broken mode are covered by the chaos tests. *)

module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Zoneconfig = Crdb_kv.Zoneconfig
module Cluster = Crdb_kv.Cluster
module Txn = Crdb_txn.Txn
module Crdb = Crdb_core.Crdb
module Obs = Crdb_obs.Obs
module Metrics = Crdb_obs.Metrics
open Support

let check = Alcotest.check
let regions5 = Latency.table1_regions
let home = "us-east1"

let make () =
  let cl, _ =
    Crdb.kv_cluster ~regions:regions5 ~home ~survival:Zoneconfig.Zone
      ~ranges:[ (("a", "zzzz"), Cluster.Lag) ]
      ()
  in
  (cl, Txn.create_manager cl)

let metric cl name = Metrics.total (Obs.metrics (Cluster.obs cl)) name

let no_conflict_timeouts cl =
  check Alcotest.int "no conflict timeouts" 0 (metric cl "kv.conflict_timeouts")

let expect_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "txn failed: %a" Txn.pp_error e

(* The deadlock-prone interleaving: two transactions touch the same two
   keys in opposite order with a sleep in between. Wound-wait breaks the
   lock cycle by wounding; both must finish fast with zero conflict
   timeouts. *)
let test_opposite_order_commits () =
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
      let a =
        Proc.async sim (fun () -> Txn.run mgr ~gateway:gw (body "ka" "kb" "t1"))
      in
      let b =
        Proc.async sim (fun () -> Txn.run mgr ~gateway:gw (body "kb" "ka" "t2"))
      in
      List.iter (fun r -> expect_ok (Proc.await r)) [ a; b ];
      check Alcotest.bool "conflict resolved fast" true
        (Sim.now sim - t0 < 8_000_000));
  no_conflict_timeouts cl

(* Read-your-writes inside one attempt: a put must be visible to later gets
   and scans of the same transaction, and a delete must hide the key. *)
let test_read_your_writes () =
  let cl, mgr = make () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      expect_ok
        (Txn.run mgr ~gateway:gw (fun t ->
             Txn.put t "ka" "1";
             Txn.put t "kb" "2";
             Txn.put t "kb" "2'";
             check Alcotest.(option string) "own put visible" (Some "2'")
               (Txn.get t "kb");
             Txn.delete t "ka";
             check Alcotest.(option string) "own delete visible" None
               (Txn.get t "ka");
             let rows = Txn.scan t ~start_key:"k" ~end_key:"kz" () in
             check
               Alcotest.(list (pair string string))
               "scan sees own writes" [ ("kb", "2'") ] rows));
      (* Committed state agrees with what the transaction observed. *)
      expect_ok
        (Txn.run mgr ~gateway:gw (fun t ->
             check Alcotest.(option string) "delete committed" None
               (Txn.get t "ka");
             check Alcotest.(option string) "put committed" (Some "2'")
               (Txn.get t "kb"))));
  no_conflict_timeouts cl

(* Six concurrent read-modify-write increments of one counter: through lock
   queues, wounds and retries, the committed history must serialize — the
   counter ends at exactly 6. *)
let test_serialized_increments () =
  let cl, mgr = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  let n = 6 in
  Cluster.run cl (fun () ->
      let clients =
        List.init n (fun i ->
            Proc.async sim (fun () ->
                Proc.sleep sim (1_000 * i);
                Txn.run mgr ~gateway:gw (fun t ->
                    let v =
                      match Txn.get t "ctr" with
                      | Some s -> int_of_string s
                      | None -> 0
                    in
                    Proc.sleep sim 5_000;
                    Txn.put t "ctr" (string_of_int (v + 1)))))
      in
      List.iter (fun r -> expect_ok (Proc.await r)) clients;
      let final =
        expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.get t "ctr"))
      in
      check Alcotest.(option string) "all increments serialized"
        (Some (string_of_int n)) final);
  no_conflict_timeouts cl

let suite =
  [
    Alcotest.test_case "opposite-order conflict commits [wound-wait]" `Quick
      test_opposite_order_commits;
    Alcotest.test_case "read-your-writes in one attempt [wound-wait]" `Quick
      test_read_your_writes;
    Alcotest.test_case "concurrent increments serialize [wound-wait]" `Quick
      test_serialized_increments;
  ]
