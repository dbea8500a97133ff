(* Tests for lib/obs: deterministic tracing keyed to simulated time and the
   metrics registry, exercised both in isolation (synthetic clock) and
   end-to-end through a small transaction workload. *)

module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Zoneconfig = Crdb_kv.Zoneconfig
module Cluster = Crdb_kv.Cluster
module Txn = Crdb_txn.Txn
module Obs = Crdb_obs.Obs
module Trace = Crdb_obs.Trace
module Metrics = Crdb_obs.Metrics
module Crdb = Crdb_core.Crdb

let check = Alcotest.check
let regions = Latency.table1_regions
let home = "us-east1"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Boot a one-range cluster, enable tracing, and commit a handful of
   transactions from the home region. Everything is seeded, so two calls
   must observe the exact same history. *)
let run_workload () =
  let cl, _ =
    Crdb.kv_cluster ~regions ~home ~survival:Zoneconfig.Zone
      ~ranges:[ (("a", "zzzz"), Cluster.Lag 3_000_000) ]
      ()
  in
  Obs.enable_tracing (Cluster.obs cl);
  let mgr = Txn.create_manager cl in
  let gw = Topology.gateway (Cluster.topology cl) ~region:home () in
  Cluster.run cl (fun () ->
      for i = 0 to 3 do
        match
          Txn.run mgr ~gateway:gw (fun t ->
              Txn.put t (Printf.sprintf "k%d" i) (string_of_int i);
              ignore (Txn.get t "k0" : string option))
        with
        | Ok () -> ()
        | Error e -> Alcotest.failf "txn failed: %a" Txn.pp_error e
      done);
  cl

let test_trace_determinism () =
  let a = Cluster.obs (run_workload ()) in
  let b = Cluster.obs (run_workload ()) in
  check Alcotest.bool "trace recorded something" true
    (Trace.num_records (Obs.trace a) > 0);
  check Alcotest.int "same record count"
    (Trace.num_records (Obs.trace a))
    (Trace.num_records (Obs.trace b));
  check Alcotest.bool "byte-identical chrome export" true
    (String.equal
       (Trace.to_chrome_json (Obs.trace a))
       (Trace.to_chrome_json (Obs.trace b)));
  check Alcotest.bool "byte-identical metrics snapshot" true
    (String.equal
       (Metrics.to_json (Obs.metrics a))
       (Metrics.to_json (Obs.metrics b)))

let test_span_tree_covers_layers () =
  let obs = Cluster.obs (run_workload ()) in
  let json = Trace.to_chrome_json (Obs.trace obs) in
  List.iter
    (fun name ->
      check Alcotest.bool (Printf.sprintf "export contains %s" name) true
        (contains ~needle:(Printf.sprintf "\"name\":\"%s\"" name) json))
    [ "txn.run"; "txn.attempt"; "kv.write"; "raft.replicate"; "net.rpc" ];
  (* The tree renderer agrees with the JSON export about what was traced. *)
  let tree = Format.asprintf "%a" Trace.pp_tree (Obs.trace obs) in
  check Alcotest.bool "tree mentions txn.run" true
    (contains ~needle:"txn.run" tree)

let test_workload_metrics () =
  let obs = Cluster.obs (run_workload ()) in
  let m = Obs.metrics obs in
  check Alcotest.int "txn.commits" 4 (Metrics.total m "txn.commits");
  check Alcotest.bool "txn.attempts >= commits" true
    (Metrics.total m "txn.attempts" >= 4);
  check Alcotest.bool "net.msgs_sent > 0" true
    (Metrics.total m "net.msgs_sent" > 0);
  check Alcotest.bool "raft.appends_sent > 0" true
    (Metrics.total m "raft.appends_sent" > 0);
  check Alcotest.int "one commit-wait sample per commit" 4
    (Crdb_stats.Hist.count (Metrics.merged_hist m "txn.commit_wait"));
  check Alcotest.bool "names include net.delay" true
    (List.mem "net.delay" (Metrics.names m))

let test_disabled_tracing_is_noop () =
  let now = ref 0 in
  let t = Trace.create ~now:(fun () -> !now) () in
  let sp = Trace.span t ~node:0 "should.vanish" in
  Trace.annotate sp "k" "v";
  Trace.event t "also.vanishes";
  Trace.finish t sp;
  check Alcotest.(option int) "disabled span has no id" None (Trace.span_id sp);
  check Alcotest.int "nothing recorded" 0 (Trace.num_records t)

let test_synthetic_trace_export () =
  let now = ref 0 in
  let t = Trace.create ~now:(fun () -> !now) () in
  Trace.enable t;
  let root = Trace.span t ~node:1 "root.op" in
  now := 10;
  let child = Trace.span t ~parent:root ~node:1 ~txn:42 "child.op" in
  Trace.annotate child "key" "value";
  now := 25;
  Trace.finish t child;
  Trace.event t ~parent:root ~node:1 "tick" ~attrs:[ ("n", "1") ];
  now := 40;
  Trace.finish t root;
  check Alcotest.int "three records" 3 (Trace.num_records t);
  let json = Trace.to_chrome_json t in
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "json has %s" needle) true
        (contains ~needle json))
    [
      "\"displayTimeUnit\"";
      "\"name\":\"root.op\"";
      "\"name\":\"child.op\"";
      "\"dur\":15";
      "\"ph\":\"i\"";
      "\"key\":\"value\"";
    ];
  Trace.clear t;
  check Alcotest.int "clear resets" 0 (Trace.num_records t)

let test_metrics_scoping () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~node:0 "c" in
  let b = Metrics.counter m ~node:1 "c" in
  let a' = Metrics.counter m ~node:0 "c" in
  Metrics.inc a;
  Metrics.add b 2;
  Metrics.inc a';
  check Alcotest.int "same scope shares the cell" 2 (Metrics.value a);
  check Alcotest.int "total sums scopes" 4 (Metrics.total m "c");
  Crdb_stats.Hist.add (Metrics.histogram m ~node:0 "h") 5;
  Crdb_stats.Hist.add (Metrics.histogram m ~node:1 "h") 9;
  let merged = Metrics.merged_hist m "h" in
  check Alcotest.int "merged samples" 2 (Crdb_stats.Hist.count merged);
  check Alcotest.int "merged max" 9 (Crdb_stats.Hist.max_value merged);
  check Alcotest.bool "kind clash rejected" true
    (match Metrics.gauge m ~node:0 "c" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "trace determinism (same seed)" `Quick
      test_trace_determinism;
    Alcotest.test_case "span tree covers all layers" `Quick
      test_span_tree_covers_layers;
    Alcotest.test_case "workload metrics" `Quick test_workload_metrics;
    Alcotest.test_case "disabled tracing is a no-op" `Quick
      test_disabled_tracing_is_noop;
    Alcotest.test_case "synthetic trace export" `Quick
      test_synthetic_trace_export;
    Alcotest.test_case "metrics scoping" `Quick test_metrics_scoping;
  ]
