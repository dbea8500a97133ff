(* Tests for the transaction layer: serializability, linearizability of
   global tables, commit waits, stale reads. *)

module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Ts = Crdb_hlc.Timestamp
module Zoneconfig = Crdb_kv.Zoneconfig
module Cluster = Crdb_kv.Cluster
module Txn = Crdb_txn.Txn
module Crdb = Crdb_core.Crdb

let check = Alcotest.check
let regions5 = Latency.table1_regions
let home = "us-east1"
let make ?(policy = Cluster.Lag 3_000_000) ?(survival = Zoneconfig.Zone) () =
  let cl, _ =
    Crdb.kv_cluster ~regions:regions5 ~home ~survival
      ~ranges:[ (("a", "zzzz"), policy) ]
      ()
  in
  (cl, Txn.create_manager cl)

let node_in cl region i =
  Topology.gateway (Cluster.topology cl) ~region ~index:i ()

let expect_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "txn failed: %a" Txn.pp_error e

let test_basic_txn () =
  let cl, mgr = make () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      expect_ok
        (Txn.run mgr ~gateway:gw (fun t ->
             Txn.put t "k1" "v1";
             Txn.put t "k2" "v2";
             (* Read own write inside the transaction. *)
             check Alcotest.(option string) "read own write" (Some "v1")
               (Txn.get t "k1")));
      expect_ok
        (Txn.run_fresh_read mgr ~gateway:gw (fun ro ->
             check Alcotest.(option string) "committed" (Some "v1")
               (Txn.ro_get ro "k1");
             check Alcotest.(option string) "committed" (Some "v2")
               (Txn.ro_get ro "k2"))))

let test_abort_leaves_no_trace () =
  let cl, mgr = make () in
  let gw = node_in cl home 0 in
  let exception Client_rollback in
  Cluster.run cl (fun () ->
      (match
         Txn.run mgr ~gateway:gw (fun t ->
             Txn.put t "k" "doomed";
             raise Client_rollback)
       with
      | exception Client_rollback -> ()
      | Ok _ | Error _ -> Alcotest.fail "body exception must propagate");
      Cluster.run_for cl 0;
      expect_ok
        (Txn.run_fresh_read mgr ~gateway:gw (fun ro ->
             check Alcotest.(option string) "rolled back" None (Txn.ro_get ro "k"))))

let test_delete () =
  let cl, mgr = make () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "v"));
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.delete t "k"));
      expect_ok
        (Txn.run_fresh_read mgr ~gateway:gw (fun ro ->
             check Alcotest.(option string) "deleted" None (Txn.ro_get ro "k"))))

let test_scan_txn () =
  let cl, mgr = make () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      expect_ok
        (Txn.run mgr ~gateway:gw (fun t ->
             List.iter (fun i -> Txn.put t (Printf.sprintf "s%02d" i) (string_of_int i))
               [ 1; 2; 3; 4; 5 ]));
      expect_ok
        (Txn.run_fresh_read mgr ~gateway:gw (fun ro ->
             let rows = Txn.ro_scan ro ~start_key:"s02" ~end_key:"s05" () in
             check
               Alcotest.(list (pair string string))
               "scan rows"
               [ ("s02", "2"); ("s03", "3"); ("s04", "4") ]
               rows;
             let limited = Txn.ro_scan ro ~start_key:"s00" ~end_key:"s99" ~limit:2 () in
             check Alcotest.int "limit" 2 (List.length limited))))

(* Bank invariant under concurrency: serializability smoke test. *)
let test_bank_transfers () =
  let cl, mgr = make () in
  let rng = Crdb_stdx.Rng.create ~seed:11 in
  let accounts = List.init 8 (fun i -> Printf.sprintf "acct%d" i) in
  let initial = 100 in
  Cluster.run cl (fun () ->
      let gw = node_in cl home 0 in
      expect_ok
        (Txn.run mgr ~gateway:gw (fun t ->
             List.iter (fun a -> Txn.put t a (string_of_int initial)) accounts)));
  (* 24 concurrent transfers from all regions. *)
  let done_count = ref 0 in
  let total_txns = 24 in
  Cluster.run cl (fun () ->
      for i = 0 to total_txns - 1 do
        let region = List.nth regions5 (i mod 5) in
        let gw = node_in cl region (i mod 3) in
        Proc.spawn (Cluster.sim cl) (fun () ->
            let a = List.nth accounts (Crdb_stdx.Rng.int rng 8) in
            let b = List.nth accounts (Crdb_stdx.Rng.int rng 8) in
            let amount = 1 + Crdb_stdx.Rng.int rng 10 in
            (match
               Txn.run mgr ~gateway:gw (fun t ->
                   if not (String.equal a b) then begin
                     let bal_a = int_of_string (Option.get (Txn.get t a)) in
                     let bal_b = int_of_string (Option.get (Txn.get t b)) in
                     Txn.put t a (string_of_int (bal_a - amount));
                     Txn.put t b (string_of_int (bal_b + amount))
                   end)
             with
            | Ok () -> ()
            | Error e -> Alcotest.failf "transfer failed: %a" Txn.pp_error e);
            incr done_count)
      done;
      (* Wait for all transfers to finish. *)
      let rec wait () =
        if !done_count < total_txns then begin
          Proc.sleep (Cluster.sim cl) 100_000;
          wait ()
        end
      in
      wait ();
      let gw = node_in cl home 0 in
      expect_ok
        (Txn.run_fresh_read mgr ~gateway:gw (fun ro ->
             let total =
               List.fold_left
                 (fun acc a -> acc + int_of_string (Option.get (Txn.ro_get ro a)))
                 0 accounts
             in
             check Alcotest.int "money conserved" (8 * initial) total)))

(* Write skew must be prevented (serializable, not snapshot isolation). *)
let test_write_skew_prevented () =
  let cl, mgr = make () in
  Cluster.run cl (fun () ->
      let gw = node_in cl home 0 in
      expect_ok
        (Txn.run mgr ~gateway:gw (fun t ->
             Txn.put t "x" "1";
             Txn.put t "y" "1"));
      (* Two doctors-on-call transactions: each reads both and zeroes the
         other if the sum allows. Under serializability at most one zero. *)
      let attempt_zero ~gw ~read_key ~write_key finished =
        Proc.spawn (Cluster.sim cl) (fun () ->
            let r =
              Txn.run mgr ~gateway:gw (fun t ->
                  let x = int_of_string (Option.get (Txn.get t read_key)) in
                  let me = int_of_string (Option.get (Txn.get t write_key)) in
                  if x + me > 1 then Txn.put t write_key "0";
                  (* Make the transactions overlap in time. *)
                  Proc.sleep (Cluster.sim cl) 50_000)
            in
            Crdb_sim.Ivar.fill finished r)
      in
      let f1 = Crdb_sim.Ivar.create () and f2 = Crdb_sim.Ivar.create () in
      attempt_zero ~gw:(node_in cl home 1) ~read_key:"x" ~write_key:"y" f1;
      attempt_zero ~gw:(node_in cl home 2) ~read_key:"y" ~write_key:"x" f2;
      ignore (Proc.await f1);
      ignore (Proc.await f2);
      expect_ok
        (Txn.run_fresh_read mgr ~gateway:gw (fun ro ->
             let x = int_of_string (Option.get (Txn.ro_get ro "x")) in
             let y = int_of_string (Option.get (Txn.ro_get ro "y")) in
             check Alcotest.bool
               (Printf.sprintf "no write skew (x=%d y=%d)" x y)
               true
               (x + y >= 1))))

(* Single-key linearizability on a GLOBAL range: any read that starts after
   a write's client acknowledgement observes that write or a newer one, from
   any region, served locally. *)
let test_global_linearizability () =
  let cl, mgr = make ~policy:Cluster.Lead () in
  let sim = Cluster.sim cl in
  let gw_writer = node_in cl home 0 in
  let completions = ref [] in
  let reads = ref [] in
  let writer_done = ref false in
  Cluster.run cl (fun () ->
      Proc.spawn sim (fun () ->
          for v = 1 to 5 do
            expect_ok
              (Txn.run mgr ~gateway:gw_writer (fun t ->
                   Txn.put t "counter" (string_of_int v)));
            completions := (v, Sim.now sim) :: !completions;
            Proc.sleep sim 150_000
          done;
          writer_done := true);
      (* Readers from every region poll concurrently. *)
      List.iteri
        (fun i region ->
          Proc.spawn sim (fun () ->
              let gw = node_in cl region (i mod 3) in
              while not !writer_done do
                let start = Sim.now sim in
                (match
                   Txn.run_fresh_read mgr ~gateway:gw (fun ro ->
                       Txn.ro_get ro "counter")
                 with
                | Ok v ->
                    let v = match v with Some s -> int_of_string s | None -> 0 in
                    reads := (start, Sim.now sim, v, region) :: !reads
                | Error _ -> ());
                Proc.sleep sim 50_000
              done))
        regions5;
      let rec wait () =
        if not !writer_done then begin
          Proc.sleep sim 200_000;
          wait ()
        end
      in
      wait ());
  (* Validate. *)
  check Alcotest.bool "collected reads" true (List.length !reads > 20);
  List.iter
    (fun (start, _finish, v, region) ->
      let must_see =
        List.fold_left
          (fun acc (w, done_at) -> if done_at < start then max acc w else acc)
          0 !completions
      in
      if v < must_see then
        Alcotest.failf "stale read in %s: saw %d, expected >= %d" region v
          must_see)
    !reads;
  (* Remote reads are either served locally at once, or delayed by at most
     ~max_offset when a concurrent write falls in their uncertainty window
     (reader-side commit wait) — never by a WAN round trip beyond that. *)
  let offset = (Cluster.config cl).Cluster.max_offset in
  let remote_all = List.filter (fun (_, _, _, r) -> r <> home) !reads in
  let remote_fast =
    List.filter (fun (s, f, _, _) -> f - s < 5_000) remote_all
  in
  let remote_bounded =
    List.filter (fun (s, f, _, _) -> f - s <= offset + 50_000) remote_all
  in
  check Alcotest.bool
    (Printf.sprintf "half of remote reads immediate (%d/%d)"
       (List.length remote_fast) (List.length remote_all))
    true
    (List.length remote_fast * 2 >= List.length remote_all);
  check Alcotest.int "every remote read bounded by max_offset"
    (List.length remote_all) (List.length remote_bounded)

let test_global_write_commit_wait () =
  let cl, mgr = make ~policy:Cluster.Lead () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  let rid = Cluster.range_of_key cl "k" in
  let lead = Cluster.closed_lead_duration cl rid in
  Cluster.run cl (fun () ->
      let t0 = Sim.now sim in
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "v"));
      let elapsed = Sim.now sim - t0 in
      check Alcotest.bool
        (Printf.sprintf "commit wait ~lead (elapsed %dus, lead %dus)" elapsed lead)
        true
        (elapsed > (lead * 2 / 3) && elapsed < lead + 200_000);
      check Alcotest.bool "writer wait recorded" true
        ((Txn.stats mgr).Txn.writer_commit_wait_micros > 0))

let test_regional_write_no_commit_wait () =
  let cl, mgr = make ~policy:(Cluster.Lag 3_000_000) () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      let t0 = Sim.now sim in
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "v"));
      let elapsed = Sim.now sim - t0 in
      check Alcotest.bool
        (Printf.sprintf "local regional write fast (%dus)" elapsed)
        true (elapsed < 10_000))

let test_reader_commit_wait_capped () =
  let cl, mgr = make ~policy:Cluster.Lead () in
  let sim = Cluster.sim cl in
  let offset = (Cluster.config cl).Cluster.max_offset in
  let gw = node_in cl home 0 in
  let remote = node_in cl "us-west1" 0 in
  Cluster.run cl (fun () ->
      Proc.spawn sim (fun () ->
          expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "v")));
      (* Probe with reads around the write's visibility transition; each
         read's latency must stay bounded by ~max_offset, never a WAN RTT. *)
      let max_latency = ref 0 in
      for _ = 1 to 40 do
        let t0 = Sim.now sim in
        (match
           Txn.run_fresh_read mgr ~gateway:remote (fun ro -> Txn.ro_get ro "k")
         with
        | Ok _ -> ()
        | Error _ -> ());
        let l = Sim.now sim - t0 in
        if l > !max_latency then max_latency := l;
        Proc.sleep sim 25_000
      done;
      check Alcotest.bool
        (Printf.sprintf "reader wait capped by max_offset (max %dus)" !max_latency)
        true
        (!max_latency <= offset + 20_000))

let test_stale_exact_read () =
  let cl, mgr = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  let remote = node_in cl "australia-southeast1" 0 in
  Cluster.run cl (fun () ->
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "v1"));
      Proc.sleep sim 5_000_000;
      (* Take the boundary timestamp from the writing gateway's own clock so
         per-node skew cannot reorder it against the second write. *)
      let mid = Cluster.now_ts cl gw in
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "v2"));
      Proc.sleep sim 5_000_000;
      (* Read at a timestamp between the writes: sees v1, from the local
         replica, fast. *)
      let t0 = Sim.now sim in
      let v =
        Txn.run_stale_exact mgr ~gateway:remote ~ts:mid (fun ro ->
            Txn.ro_get ro "k")
      in
      check Alcotest.(option string) "historical value" (Some "v1") v;
      check Alcotest.bool "served locally" true (Sim.now sim - t0 < 3_000))

let test_stale_bounded_read () =
  let cl, mgr = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  let remote = node_in cl "asia-northeast1" 0 in
  Cluster.run cl (fun () ->
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "v1"));
      Proc.sleep sim 6_000_000;
      let t0 = Sim.now sim in
      let v, ts =
        Txn.run_stale_bounded mgr ~gateway:remote ~max_staleness:10_000_000
          ~keys:[ "k" ] (fun ro -> (Txn.ro_get ro "k", Txn.ro_ts ro))
      in
      check Alcotest.(option string) "value" (Some "v1") v;
      check Alcotest.bool "served locally" true (Sim.now sim - t0 < 3_000);
      (* The negotiated timestamp should be much fresher than the bound. *)
      check Alcotest.bool "negotiated fresh" true
        (Ts.wall ts > Sim.now sim - 5_000_000))

let test_conflict_restart_counted () =
  let cl, mgr = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "0"));
      (* Two read-modify-write transactions on the same key, racing. *)
      let f1 = Crdb_sim.Ivar.create () and f2 = Crdb_sim.Ivar.create () in
      let incr_txn finished =
        Proc.spawn sim (fun () ->
            let r =
              Txn.run mgr ~gateway:gw (fun t ->
                  let v = int_of_string (Option.get (Txn.get t "k")) in
                  Proc.sleep sim 20_000;
                  Txn.put t "k" (string_of_int (v + 1)))
            in
            Crdb_sim.Ivar.fill finished r)
      in
      incr_txn f1;
      incr_txn f2;
      (match (Proc.await f1, Proc.await f2) with
      | Ok (), Ok () -> ()
      | _ -> Alcotest.fail "both increments must eventually succeed");
      expect_ok
        (Txn.run_fresh_read mgr ~gateway:gw (fun ro ->
             check Alcotest.(option string) "both increments applied" (Some "2")
               (Txn.ro_get ro "k"))))

(* Heartbeats cost nothing once a transaction finishes, and keep a long
   one alive. Fifty short writes finish inside one heartbeat interval: the
   event queue must not grow by a parked heartbeat for each of them (it
   grew by 50 when every attempt parked one; without that it stays within
   a couple of events). A
   transaction that then outlives three intervals (the abandonment bound)
   while a younger writer pushes it must keep a Pending record and commit
   in its first attempt. *)
let test_heartbeat_lifecycle () =
  let cl, mgr = make () in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  let interval = Cluster.txn_heartbeat_interval in
  Cluster.run cl (fun () ->
      let short i =
        expect_ok
          (Txn.run mgr ~gateway:gw (fun t ->
               Txn.put t (Printf.sprintf "short%02d" i) "v"))
      in
      (* Warm up: the first writes start the range's steady background
         traffic. *)
      for i = 1 to 5 do
        short i
      done;
      let t0 = Sim.now sim and queued = Sim.pending sim in
      for i = 6 to 55 do
        short i
      done;
      check Alcotest.bool "the short transactions fit in one interval" true
        (Sim.now sim - t0 < interval);
      let growth = Sim.pending sim - queued in
      check Alcotest.bool
        (Printf.sprintf "queue grew by %d, under 10" growth)
        true (growth < 10);
      let attempts = ref 0 in
      let long =
        Proc.async sim (fun () ->
            Txn.run mgr ~gateway:gw
              ~on_attempt:(fun _ _ -> incr attempts)
              (fun t ->
                Txn.put t "long" "old";
                Proc.sleep sim ((3 * interval) + (interval / 2));
                (match
                   Cluster.txn_status cl ~gateway:gw ~txn:(Txn.txn_id t)
                     ~key:"long" ()
                 with
                | Some Crdb_kv.Txnrec.Pending -> ()
                | _ -> Alcotest.fail "the long transaction's record is not live");
                Txn.put t "long2" "old"))
      in
      Proc.sleep sim 100_000;
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "long" "young"));
      expect_ok (Proc.await long);
      check Alcotest.int "the long transaction committed first time" 1
        !attempts;
      expect_ok
        (Txn.run_fresh_read mgr ~gateway:gw (fun ro ->
             check Alcotest.(option string) "the pusher wrote last"
               (Some "young") (Txn.ro_get ro "long"))))

(* The same GLOBAL-table commit wait, observed through lib/obs: the manager
   feeds per-gateway counters and a commit-wait histogram into the cluster's
   metrics registry. *)
let test_commit_wait_metrics () =
  let module Metrics = Crdb_obs.Metrics in
  let cl, mgr = make ~policy:Cluster.Lead () in
  let gw = node_in cl home 0 in
  Cluster.run cl (fun () ->
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "k" "v")));
  let m = Crdb_obs.Obs.metrics (Cluster.obs cl) in
  check Alcotest.int "txn.commits counted" 1 (Metrics.total m "txn.commits");
  check Alcotest.bool "txn.attempts counted" true
    (Metrics.total m "txn.attempts" >= 1);
  let h = Metrics.merged_hist m "txn.commit_wait" in
  check Alcotest.int "one commit-wait sample" 1 (Crdb_stats.Hist.count h);
  check Alcotest.bool "global write waited out the lead" true
    (Crdb_stats.Hist.max_value h > 0)

(* A stale scan crossing a range boundary stops at its row limit: the limit
   counts down across fragments instead of applying to each one. *)
let test_stale_scan_limit_across_split () =
  let cl, mgr = make () in
  let gw = node_in cl home 0 in
  let remote = node_in cl "europe-west2" 1 in
  Cluster.run cl (fun () ->
      expect_ok
        (Txn.run mgr ~gateway:gw (fun t ->
             List.iter (fun k -> Txn.put t k ("v" ^ k)) [ "k1"; "k2"; "k3"; "k4" ])));
  ignore
    (Cluster.split_range cl (Cluster.range_of_key cl "k1") ~at:"k3"
      : Cluster.range_id option);
  Cluster.run cl (fun () ->
      Proc.sleep (Cluster.sim cl) 4_000_000;
      let ts = Ts.of_wall (Sim.now (Cluster.sim cl) - 3_500_000) in
      let rows =
        Txn.run_stale_exact mgr ~gateway:remote ~ts (fun ro ->
            Txn.ro_scan ro ~start_key:"k" ~end_key:"l" ~limit:2 ())
      in
      check
        Alcotest.(list (pair string string))
        "first two keys" [ ("k1", "vk1"); ("k2", "vk2") ] rows)

let suite =
  [
    Alcotest.test_case "basic txn" `Quick test_basic_txn;
    Alcotest.test_case "abort" `Quick test_abort_leaves_no_trace;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "scan" `Quick test_scan_txn;
    Alcotest.test_case "bank transfers" `Quick test_bank_transfers;
    Alcotest.test_case "write skew prevented" `Quick test_write_skew_prevented;
    Alcotest.test_case "global linearizability" `Quick test_global_linearizability;
    Alcotest.test_case "global commit wait" `Quick test_global_write_commit_wait;
    Alcotest.test_case "regional no commit wait" `Quick
      test_regional_write_no_commit_wait;
    Alcotest.test_case "reader wait capped" `Quick test_reader_commit_wait_capped;
    Alcotest.test_case "stale exact" `Quick test_stale_exact_read;
    Alcotest.test_case "stale bounded" `Quick test_stale_bounded_read;
    Alcotest.test_case "conflict restart" `Quick test_conflict_restart_counted;
    Alcotest.test_case "commit wait metrics" `Quick test_commit_wait_metrics;
    Alcotest.test_case "heartbeat lifecycle" `Quick test_heartbeat_lifecycle;
    Alcotest.test_case "stale scan limit across split" `Quick
      test_stale_scan_limit_across_split;
  ]
